package batch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ecgrid/internal/scenario"
)

// tinyCfg is a fast-to-simulate but non-trivial scenario.
func tinyCfg(p scenario.ProtocolKind, seed int64) scenario.Config {
	cfg := scenario.Default(p)
	cfg.Hosts = 12
	cfg.AreaSize = 500
	cfg.Duration = 30
	cfg.SampleEvery = 10
	cfg.Flows = 2
	cfg.Seed = seed
	return cfg
}

// tinyJobs is a small mixed sweep: two protocols at three seeds.
func tinyJobs() []Job {
	var jobs []Job
	for _, p := range []scenario.ProtocolKind{scenario.ECGRID, scenario.GRID} {
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, Job{Tag: fmt.Sprintf("%s seed=%d", p, seed), Cfg: tinyCfg(p, seed)})
		}
	}
	return jobs
}

// marshal serializes one run's results for byte-level comparison.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterminismAcrossWorkers is the core guarantee: the same job list
// produces byte-identical serialized results at workers=1 and workers=8.
func TestDeterminismAcrossWorkers(t *testing.T) {
	jobs := tinyJobs()
	serial, sum1 := Run(context.Background(), jobs, Options{Workers: 1})
	if err := sum1.Err(); err != nil {
		t.Fatal(err)
	}
	parallel, sum8 := Run(context.Background(), jobs, Options{Workers: 8})
	if err := sum8.Err(); err != nil {
		t.Fatal(err)
	}
	if sum1.Executed != len(jobs) || sum8.Executed != len(jobs) {
		t.Fatalf("executed %d / %d jobs, want %d", sum1.Executed, sum8.Executed, len(jobs))
	}
	for i := range jobs {
		a, b := marshal(t, serial[i].Res), marshal(t, parallel[i].Res)
		if string(a) != string(b) {
			t.Errorf("job %d (%s): serialized results differ between workers=1 and workers=8",
				i, jobs[i].Tag)
		}
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	bad := tinyCfg(scenario.ECGRID, 1)
	bad.Hosts = -1 // fails Validate, so runner.Run panics
	jobs := []Job{
		{Tag: "good-1", Cfg: tinyCfg(scenario.ECGRID, 1)},
		{Tag: "bad", Cfg: bad},
		{Tag: "good-2", Cfg: tinyCfg(scenario.ECGRID, 2)},
	}
	results, sum := Run(context.Background(), jobs, Options{Workers: 4, Retries: 1})
	if sum.Failed != 1 || sum.Executed != 2 {
		t.Fatalf("summary = %+v, want 1 failed / 2 executed", sum)
	}
	if sum.Err() == nil {
		t.Fatal("summary reports no error despite a failed job")
	}
	r := results[1]
	if r.Err == nil || r.Res != nil {
		t.Fatalf("bad job result = %+v, want error and nil results", r)
	}
	var pe *PanicError
	if !errors.As(r.Err, &pe) {
		t.Fatalf("bad job error %T, want *PanicError", r.Err)
	}
	if pe.Stack == "" || !strings.Contains(pe.Value, "at least one host") {
		t.Errorf("panic capture incomplete: value=%q stack len=%d", pe.Value, len(pe.Stack))
	}
	if r.Attempts != 2 {
		t.Errorf("bad job ran %d attempts, want 2 (1 + 1 retry)", r.Attempts)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Res == nil {
			t.Errorf("job %d should have survived the neighbour's panic: %+v", i, results[i])
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, sum := Run(ctx, tinyJobs(), Options{Workers: 2})
	if sum.Cancelled != len(results) {
		t.Fatalf("cancelled %d of %d", sum.Cancelled, len(results))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", r.Index, r.Err)
		}
	}
	if sum.Err() == nil {
		t.Fatal("cancelled batch reports success")
	}
}

func TestKeyStability(t *testing.T) {
	a := tinyCfg(scenario.ECGRID, 1)
	b := tinyCfg(scenario.ECGRID, 1)
	if Key(a) != Key(b) {
		t.Fatal("equal configs produced different keys")
	}
	c := tinyCfg(scenario.ECGRID, 2)
	if Key(a) == Key(c) {
		t.Fatal("different seeds share a key")
	}
	d := tinyCfg(scenario.GRID, 1)
	if Key(a) == Key(d) {
		t.Fatal("different protocols share a key")
	}
}

func TestProgressSinkSerializes(t *testing.T) {
	var lines []string // plain slice: the sink's contract makes this safe
	sink := NewSink(func(s string) { lines = append(lines, s) })
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sink.Log("worker %d line %d", i, j)
			}
		}(i)
	}
	wg.Wait()
	if len(lines) != 16*50 {
		t.Fatalf("lost lines: %d of %d", len(lines), 16*50)
	}
	var nilSink *Sink
	nilSink.Log("dropped")          // must not panic
	NewSink(nil).Log("dropped too") // must not panic
}
