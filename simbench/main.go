// Command simbench is the ecgrid simulator's benchmark. For one workload
// and seed it starts a fresh worker process per runner.Run call, repeats
// runs for the requested number of seconds, checks every result, and
// prints one JSON line of metrics; with -trace 1 it adds a profiled run
// and charges its time to the simulator's layers. See README.md.
//
//	simbench -workload dense-5k -seed 1 -seconds 50 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// inputStride separates the simulation seeds of one seed's inputs:
	// input i of seed s runs with simulation seed s + i·inputStride, so
	// input 0 is the seed itself.
	inputStride = 1_000_000
	// workerProcs is GOMAXPROCS in every worker, at most nproc on any
	// machine. The runs are serial, so one P keeps the collector's work
	// on the measured thread instead of on a second core that other
	// tenants of the machine share.
	workerProcs = 1
	// workerTimeout bounds one worker process, whose runs take seconds.
	workerTimeout = 60 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "simbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// result is the line the coordinator prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]figure `json:"metrics"`
}

type figure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-protocols or dense-5k")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 50, "wall seconds of timed runs")
	trace := fs.Int("trace", 0, "1 adds a profiled run and reports per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Profiles go beside the executable, which the build puts inside the
	// checkout.
	scratch, err := os.MkdirTemp(filepath.Dir(exe), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	d := newCoordinator(w, exe, *seed)
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	// Run inputs 0..n-1, then input 0 again so that its digests are
	// checked against a repeat, then keep cycling while time remains.
	for k := 0; k <= d.inputs || time.Now().Add(d.lastRun).Before(deadline); k++ {
		d.timedRun(k % d.inputs)
	}
	var attr *attribution
	var traced []*report
	if *trace == 1 {
		if attr, traced, err = d.tracedRun(scratch); err != nil {
			return err
		}
	}
	for _, f := range d.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	for c, reps := range d.runs {
		if len(reps) == 0 {
			return fmt.Errorf("every run of config %d failed", c)
		}
	}
	d.printRuns(stdout)

	res := result{
		Correct:   d.failed == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
	}
	if *trace == 1 {
		res.Metrics = d.perLayerMetrics(attr, traced)
	} else {
		res.Metrics = d.endToEndMetrics()
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "# %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// coordinator runs the worker processes of one invocation and keeps their
// reports.
type coordinator struct {
	workload
	exe       string
	seed      int64
	protocols []string // protocol of each config
	loadavg   float64

	runs      [][]*report       // timed runs of each config, in run order
	digests   map[[2]int]string // results digest of each (input, config)'s first run
	lastRun   time.Duration     // wall time of the latest timedRun
	attempted int
	failed    int
	failures  []string
}

func newCoordinator(w workload, exe string, seed int64) *coordinator {
	d := &coordinator{workload: w, exe: exe, seed: seed, loadavg: readLoadavg(), digests: map[[2]int]string{}}
	for _, cfg := range w.configs(seed) {
		d.protocols = append(d.protocols, string(cfg.Protocol))
	}
	d.runs = make([][]*report, len(d.protocols))
	return d
}

// inputSeed is the simulation seed of input i.
func (d *coordinator) inputSeed(i int) int64 { return d.seed + int64(i)*inputStride }

// timedRun runs every config of input i once, untraced, and keeps the
// reports.
func (d *coordinator) timedRun(i int) {
	t0 := time.Now()
	for c := range d.runs {
		if rep := d.run(i, c, ""); rep != nil {
			d.runs[c] = append(d.runs[c], rep)
		}
	}
	d.lastRun = time.Since(t0)
}

// tracedRun runs every config of input 0 once more under the CPU
// profiler and charges the samples to layers.
func (d *coordinator) tracedRun(dir string) (*attribution, []*report, error) {
	a := newAttribution()
	var reps []*report
	for c := range d.runs {
		name := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", c))
		rep := d.run(0, c, name)
		if rep == nil {
			return nil, nil, errors.New("traced run failed")
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		p, err := parseProfile(data)
		if err != nil {
			return nil, nil, err
		}
		if err := a.add(p); err != nil {
			return nil, nil, err
		}
		reps = append(reps, rep)
	}
	return a, reps, nil
}

// run starts a worker process on config c of input i, waits for its
// report and checks it. A worker that fails to report counts as a failed
// run, and run returns nil.
func (d *coordinator) run(i, c int, profile string) *report {
	ctx, cancel := context.WithTimeout(context.Background(), workerTimeout)
	defer cancel()
	args := []string{"worker", "-workload", d.name, "-seed", strconv.FormatInt(d.inputSeed(i), 10),
		"-config", strconv.Itoa(c)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Env = workerEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	rep := &report{input: i}
	err := cmd.Run()
	if err == nil {
		err = json.Unmarshal(stdout.Bytes(), rep)
	}
	d.attempted++
	if err != nil {
		rep.Failures = []string{fmt.Sprintf("worker: %v\n%s", err, stderr.String())}
	}
	key := [2]int{i, c}
	switch first := d.digests[key]; {
	case rep.Digest == "":
	case first == "":
		d.digests[key] = rep.Digest
	case rep.Digest != first:
		rep.Failures = append(rep.Failures, fmt.Sprintf("results digest %s differs from the first run's %s",
			rep.Digest, first))
	}
	if len(rep.Failures) > 0 {
		d.failed++
		for _, f := range rep.Failures {
			d.failures = append(d.failures, fmt.Sprintf("input %d config %d: %s", i, c, f))
		}
	}
	if err != nil {
		return nil
	}
	return rep
}

// workerEnv is the coordinator's environment with the runtime settings that
// change what a run costs fixed.
func workerEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch {
		case strings.HasPrefix(kv, "GOMAXPROCS="), strings.HasPrefix(kv, "GOGC="),
			strings.HasPrefix(kv, "GOMEMLIMIT="), strings.HasPrefix(kv, "GODEBUG="):
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(workerProcs), "GOGC=100")
}

// printRuns writes each config's inputs, digests and run times as
// comment lines.
func (d *coordinator) printRuns(w io.Writer) {
	for c, reps := range d.runs {
		fmt.Fprintf(w, "# %s seed %d config %d (%s): wall s", d.name, d.seed, c, d.protocols[c])
		for _, r := range reps {
			fmt.Fprintf(w, " %.3f", r.Wall)
		}
		fmt.Fprintln(w)
		for i := 0; i < d.inputs; i++ {
			fmt.Fprintf(w, "#   input %d, simulation seed %d: results digest %s\n",
				i, d.inputSeed(i), d.digests[[2]int{i, c}])
		}
	}
	fmt.Fprintf(w, "# host: nproc %d, GOMAXPROCS %d, loadavg %.2f, steal %.3f s per run\n",
		runtime.NumCPU(), workerProcs, d.loadavg, d.sumMeans(func(r *report) float64 { return r.StealS }))
}

// sumMeans adds up, over the configs, the mean of f over each config's
// timed runs. The runs of a config cover several inputs whose costs
// differ, and a mean weighs them all; on this benchmark's runs it
// spreads less from seed to seed than a median does.
func (d *coordinator) sumMeans(f func(*report) float64) float64 {
	var sum float64
	for _, reps := range d.runs {
		var s float64
		for _, r := range reps {
			s += f(r)
		}
		sum += s / float64(len(reps))
	}
	return sum
}

// inputMeans returns, for each config, the mean of f over the inputs,
// taking each input's first run. It suits figures that repeat exactly
// for an input and differ only between inputs.
func (d *coordinator) inputMeans(f func(*report) float64) []float64 {
	means := make([]float64, len(d.runs))
	for c, reps := range d.runs {
		seen := map[int]bool{}
		for _, r := range reps {
			if !seen[r.input] {
				seen[r.input] = true
				means[c] += f(r)
			}
		}
		means[c] /= float64(len(seen))
	}
	return means
}

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func largest(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func (d *coordinator) endToEndMetrics() map[string]figure {
	setup := 0.0
	for _, reps := range d.runs {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.Setup...)
		}
		setup += median(xs)
	}
	values := map[string]float64{
		"wall_s":      d.sumMeans(func(r *report) float64 { return r.Wall }),
		"cpu_s":       d.sumMeans(func(r *report) float64 { return r.CPU }),
		"setup_s":     setup,
		"peak_rss_mb": largest(d.inputMeans(func(r *report) float64 { return float64(r.PeakRSSKB) / 1024 })),
		"alloc_mb":    total(d.inputMeans(func(r *report) float64 { return float64(r.AllocB) / (1 << 20) })),
		"allocs_m":    total(d.inputMeans(func(r *report) float64 { return float64(r.Mallocs) / 1e6 })),
	}
	m := map[string]figure{}
	for _, e := range endToEnd {
		m[e.name] = figure{values[e.name], e.unit}
	}
	return m
}

// perLayerMetrics reports the traced run and the exact counts of input
// 0; host times per protocol are means like wall_s.
func (d *coordinator) perLayerMetrics(a *attribution, traced []*report) map[string]figure {
	values := map[string]float64{}
	var tracedCPU, tracedWall, untracedWall float64
	for c, r := range traced {
		tracedCPU += r.CPU
		tracedWall += r.Wall
		var walls []float64
		for _, u := range d.runs[c] {
			if u.input == 0 {
				walls = append(walls, u.Wall)
			}
		}
		untracedWall += median(walls)
	}
	// The kernel may deliver profiling signals below the requested rate,
	// so a sample stands for an equal share of the traced run's CPU time
	// rather than for the nominal sampling period.
	perSample := ratio(tracedCPU, float64(a.Total))
	for _, l := range layers {
		values[l+".self_s"] = float64(a.Self[l]) * perSample
		values[l+".calls_s"] = float64(a.Calls[l]) * perSample
		values[l+".samples"] = float64(a.Self[l])
	}
	values["trace.samples"] = float64(a.Total)
	values["trace.overhead"] = ratio(tracedWall, untracedWall)

	counts := map[string]float64{}
	for _, reps := range d.runs {
		for k, v := range reps[0].Counts {
			counts[k] += v
		}
		values["gc.cycles"] += float64(reps[0].GCCycles)
	}
	for _, c := range countMetrics {
		values[c] = counts[c]
	}
	values["radio.rxcache_hit_ratio"] = ratio(counts["radio.rxcache_hits"],
		counts["radio.rxcache_hits"]+counts["radio.rxcache_misses"])
	values["traffic.delivery_ratio"] = ratio(counts["traffic.delivered"], counts["traffic.sent"])
	values["gc.pause_s"] = d.sumMeans(func(r *report) float64 { return float64(r.GCPauseNs) / 1e9 })

	for c, reps := range d.runs {
		var sum float64
		for _, r := range reps {
			sum += r.Wall
		}
		values["protocol."+d.protocols[c]+"_s"] += sum / float64(len(reps))
	}
	values["host.steal_s"] = d.sumMeans(func(r *report) float64 { return r.StealS })
	values["host.loadavg"] = d.loadavg
	values["host.nproc"] = float64(runtime.NumCPU())
	values["host.gomaxprocs"] = workerProcs

	m := map[string]figure{}
	for _, pl := range perLayer() {
		m[pl.name] = figure{values[pl.name], pl.unit}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
