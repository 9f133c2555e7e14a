package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

func smallRun(t *testing.T, p scenario.ProtocolKind) *runner.Results {
	t.Helper()
	cfg := scenario.Default(p)
	cfg.Hosts = 40
	cfg.Duration = 60
	return runner.Run(cfg)
}

func TestGatePassesCleanRuns(t *testing.T) {
	for _, p := range scenario.Known() {
		if bad := checkResults(smallRun(t, p)); len(bad) > 0 {
			t.Errorf("%s: %v", p, bad)
		}
	}
}

func TestGateCatchesViolations(t *testing.T) {
	clean := smallRun(t, scenario.ECGRID)
	cases := map[string]func(r *runner.Results){
		"leaked":      func(r *runner.Results) { r.FrameLeaks = 2 },
		"released":    func(r *runner.Results) { r.Radio.FramesReleased++ },
		"delivered":   func(r *runner.Results) { r.Delivered = r.Sent + 1 },
		"MeanLatency": func(r *runner.Results) { r.MeanLatency = math.NaN() },
		"series":      func(r *runner.Results) { r.Alive[0].V = math.Inf(1) },
	}
	for want, corrupt := range cases {
		r := *clean
		r.Alive = append(r.Alive[:0:0], clean.Alive...)
		corrupt(&r)
		bad := checkResults(&r)
		if len(bad) != 1 || !strings.Contains(bad[0], want) {
			t.Errorf("corrupting %s: gate reported %v", want, bad)
		}
	}
}

// TestProtocolCountersExist guards the counter table against renames in
// runner: a counter it maps must be one the protocol reports.
func TestProtocolCountersExist(t *testing.T) {
	listed := map[string]bool{}
	for _, c := range countMetrics {
		listed[c] = true
	}
	for _, p := range scenario.Known() {
		if !contains(protocols, string(p)) {
			t.Errorf("no protocol.%s_s metric", p)
		}
		res := smallRun(t, p)
		for counter, name := range protocolCounters[p] {
			if _, ok := res.Protocol[counter]; !ok {
				t.Errorf("%s reports no counter %q", p, counter)
			}
			if !listed[name] {
				t.Errorf("%s counter %q maps to %s, which is not a reported metric", p, counter, name)
			}
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.configs(7), w.configs(7), w.configs(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds give different configs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds give equal configs", w.name)
		}
		for _, cfg := range a {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
