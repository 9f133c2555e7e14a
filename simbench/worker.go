package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// setupHorizon is the simulated horizon of a set-up run: it ends before
// any host has done more than schedule its start, so the run measures
// building the substrates, hosts and flows.
const setupHorizon = 1e-9

// A worker times set-up at least minSetups times and for at least
// setupBudget, so that cheap set-ups are timed many times.
const (
	minSetups   = 2
	setupBudget = 50 * time.Millisecond
)

// profileHz is the CPU profiler's requested sampling rate in the traced
// run. The runtime default of 100 Hz gives too few samples on a 5 s run
// to resolve the smaller layers; the kernel's tick may cap the rate
// actually delivered.
const profileHz = 250

// report is what one worker process measured of one runner.Run call.
// Times are host seconds.
type report struct {
	Wall      float64   // runner.Run wall time
	CPU       float64   // user+sys time of the process during the call
	Setup     []float64 // wall time of each set-up
	AllocB    uint64    // bytes allocated during the call
	Mallocs   uint64    // heap objects allocated during the call
	PeakRSSKB int64     // maximum resident set size once the run ends
	GCCycles  uint32
	GCPauseNs uint64
	StealS    float64 // hypervisor steal during the call, all CPUs
	Digest    string  // sha256 of the canonical results
	Counts    map[string]float64
	Failures  []string

	input int // set by the coordinator
}

// workerMain runs one config of a workload in this process and writes
// its report as JSON to stdout. The coordinator starts one worker per
// runner.Run call it times.
func workerMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "simulation seed")
	config := fs.Int("config", 0, "index of the workload's config to run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	cfgs := w.configs(*seed)
	if *config < 0 || *config >= len(cfgs) {
		return fmt.Errorf("workload %s has no config %d", w.name, *config)
	}
	rep := measure(cfgs[*config], *cpuprofile)
	for t0 := time.Now(); len(rep.Setup) < minSetups || time.Since(t0) < setupBudget; {
		rep.Setup = append(rep.Setup, timeSetup(w, *seed, *config))
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// measure executes cfg once, timing only the runner.Run call, and
// checks the result.
func measure(cfg scenario.Config, cpuprofile string) *report {
	rep := &report{Counts: map[string]float64{}}
	fail := func(err error) *report {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", cfg.Protocol, err))
		return rep
	}
	if err := cfg.Validate(); err != nil {
		return fail(fmt.Errorf("invalid config: %w", err))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop, err := startProfile(cpuprofile)
	if err != nil {
		return fail(err)
	}
	steal0 := readSteal()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, runErr := runGuarded(cfg)
	rep.Wall = time.Since(t0).Seconds()
	rep.CPU = cpuSeconds() - cpu0
	rep.StealS = readSteal() - steal0
	if err := stop(); err != nil {
		fail(err)
	}
	runtime.ReadMemStats(&m1)
	rep.AllocB = m1.TotalAlloc - m0.TotalAlloc
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.PeakRSSKB = ru.Maxrss
	}
	if runErr != nil {
		return fail(runErr)
	}
	rep.Failures = append(rep.Failures, checkResults(res)...)
	b, err := res.CanonicalJSON()
	if err != nil {
		return fail(err)
	}
	sum := sha256.Sum256(b)
	rep.Digest = hex.EncodeToString(sum[:])
	addCounts(rep.Counts, res)
	return rep
}

// startProfile starts a CPU profile into the named file and returns the
// function that stops it. With an empty name nothing is profiled.
func startProfile(name string) (stop func() error, err error) {
	if name == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// StartCPUProfile keeps a rate that is already set; the runtime
	// notes the override on stderr.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// runGuarded calls runner.Run and turns a panic into an error: a config
// that Validate accepts must run to completion.
func runGuarded(cfg scenario.Config) (res *runner.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner.Run panicked: %v", p)
		}
	}()
	return runner.Run(cfg), nil
}

// timeSetup times generating the workload's configs, validating config
// i, and running it to a horizon before its first event.
func timeSetup(w workload, seed int64, i int) float64 {
	runtime.GC()
	t0 := time.Now()
	cfg := w.configs(seed)[i]
	cfg.Duration = setupHorizon
	if cfg.Validate() == nil {
		runGuarded(cfg)
	}
	return time.Since(t0).Seconds()
}

// cpuSeconds is the process's user+sys time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
