package main

import (
	"bytes"
	"os/exec"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// stackOf turns a call path written outermost first into a profile
// stack, which lists the leaf first.
func stackOf(path ...string) []string {
	s := append([]string(nil), path...)
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

func TestFoldingRule(t *testing.T) {
	const (
		main    = "main.measure"
		run     = "ecgrid/internal/runner.Run"
		engine  = "ecgrid/internal/sim.(*Engine).Run"
		sched   = "ecgrid/internal/sim.(*Engine).Schedule"
		onTimer = "ecgrid/internal/core.(*Protocol).onTimer"
		sortFn  = "ecgrid/internal/core.(*Protocol).sortNeighbors.func1"
		page    = "ecgrid/internal/ras.(*Bus).PageGrid"
		pos     = "ecgrid/internal/node.(*Host).Position"
		send    = "ecgrid/internal/radio.(*Channel).Send"
	)
	cases := []struct {
		name  string
		stack []string
		self  string
		calls []string
	}{
		{"runtime helper goes to its caller",
			stackOf(main, run, engine, onTimer, page, "runtime.mapaccess2_fast64", "runtime.memhash64"),
			"ras", []string{"core", "ras", "runner", "sim"}},
		{"layer leaf",
			stackOf(main, run, engine, onTimer, page, pos),
			"node", []string{"core", "node", "ras", "runner", "sim"}},
		{"intra-package call through the standard library is no cross-layer call",
			stackOf(main, run, engine, onTimer, "sort.Slice", "sort.pdqsort_func", sortFn),
			"core", []string{"core", "runner", "sim"}},
		{"re-entering a layer counts its call once",
			stackOf(main, run, engine, onTimer, send, sched, "runtime.growslice"),
			"sim", []string{"core", "radio", "runner", "sim"}},
		{"assist goes to gc, entered from the allocating layer",
			stackOf(main, run, engine, onTimer, "runtime.mallocgc", "runtime.gcAssistAlloc",
				"runtime.gcAssistAlloc1", "runtime.gcDrainN", "runtime.scanobject"),
			"gc", []string{"core", "gc", "runner", "sim"}},
		{"sweep on allocation goes to gc",
			stackOf(main, run, engine, send, "runtime.mallocgc", "runtime.(*mcache).refill",
				"runtime.(*mcentral).cacheSpan", "runtime.(*sweepLocked).sweep"),
			"gc", []string{"gc", "radio", "runner", "sim"}},
		{"background mark worker is gc entered from no layer",
			stackOf("runtime.goexit", "runtime.gcBgMarkWorker", "runtime.systemstack",
				"runtime.gcDrain", "runtime.markroot", "runtime.scanstack"),
			"gc", nil},
		{"no ecgrid frame is runtime",
			stackOf("runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable"),
			"runtime", nil},
		{"generic instantiation",
			stackOf(main, run, engine, "ecgrid/internal/sim.(*calendar[go.shape.*ecgrid/internal/core.timer]).push"),
			"sim", []string{"runner", "sim"}},
	}
	for _, c := range cases {
		a := newAttribution()
		err := a.add(&profile{
			SampleTypes: []string{"samples/count", "cpu/nanoseconds"},
			Samples:     []sample{{Stack: c.stack, Values: []int64{3, 3e6}}},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(a.Self, map[string]int64{c.self: 3}) {
			t.Errorf("%s: self %v, want %s", c.name, a.Self, c.self)
		}
		var calls []string
		for l, n := range a.Calls {
			if n != 3 {
				t.Errorf("%s: calls[%s] = %d, want 3", c.name, l, n)
			}
			calls = append(calls, l)
		}
		sort.Strings(calls)
		if !reflect.DeepEqual(calls, c.calls) {
			t.Errorf("%s: calls into %v, want %v", c.name, calls, c.calls)
		}
	}
}

func TestUnmappedPackageIsAnError(t *testing.T) {
	a := newAttribution()
	err := a.add(&profile{
		SampleTypes: []string{"samples/count"},
		Samples: []sample{{Stack: stackOf("ecgrid/internal/runner.Run",
			"ecgrid/internal/newlayer.(*Thing).Do"), Values: []int64{1}}},
	})
	if err == nil || !strings.Contains(err.Error(), "ecgrid/internal/newlayer") {
		t.Fatalf("got %v, want an error naming the unmapped package", err)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"ecgrid/internal/ras.(*Bus).PageGrid":                           "ecgrid/internal/ras",
		"ecgrid/internal/protocols/span.(*Protocol).onHello":            "ecgrid/internal/protocols/span",
		"ecgrid/internal/runner.Run.func3":                              "ecgrid/internal/runner",
		"ecgrid/internal/sim.(*cal[go.shape.*ecgrid/internal/x.T]).pop": "ecgrid/internal/sim",
		"sort.Slice":                "sort",
		"runtime.mallocgc":          "runtime",
		"main.main":                 "main",
		"internal/runtime/maps.foo": "internal/runtime/maps",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerTableMatchesImportGraph checks that every ecgrid/internal
// package runner.Run can reach has a layer, and that the table names no
// package that is not reachable.
func TestLayerTableMatchesImportGraph(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}", "ecgrid/internal/runner").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	reach := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "ecgrid/internal/") {
			reach[pkg] = true
			if _, ok := packageLayer[pkg]; !ok {
				t.Errorf("package %s has no layer", pkg)
			}
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range packageLayer {
		if !reach[pkg] {
			t.Errorf("layer table names %s, which runner.Run does not reach", pkg)
		}
		if !known[l] {
			t.Errorf("package %s maps to unknown layer %q", pkg, l)
		}
	}
}

// TestProfiledRunIsFullyAttributed profiles a small real run of every
// protocol and checks that each sample lands in a named layer and that
// layer self counts sum to the sample total.
func TestProfiledRunIsFullyAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles simulation runs")
	}
	a := newAttribution()
	for _, p := range scenario.Known() {
		cfg := scenario.Default(p)
		cfg.Hosts = 60
		cfg.Duration = 120
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("cpu profiling unavailable: %v", err)
		}
		runner.Run(cfg)
		pprof.StopCPUProfile()
		prof, err := parseProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.add(prof); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	var sum int64
	for l, n := range a.Self {
		if !contains(layers, l) {
			t.Errorf("samples charged to unknown layer %q", l)
		}
		sum += n
	}
	if a.Total == 0 || sum != a.Total {
		t.Fatalf("layer self samples sum to %d, total %d", sum, a.Total)
	}
	if a.Self["runtime"]*10 > a.Total {
		t.Errorf("%d of %d samples have no ecgrid/internal frame", a.Self["runtime"], a.Total)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
