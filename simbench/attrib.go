package main

import (
	"fmt"
	"strings"
)

// layers are the per-layer attribution's buckets, named after the
// ecgrid/internal packages, plus gc for garbage-collector work and
// runtime for samples with no ecgrid/internal frame at all (scheduler
// and profiler work during the run).
var layers = []string{
	"sim", "radio", "spatial", "ras", "mobility", "node", "core", "span", "gaf",
	"routing", "energy", "traffic", "metrics", "scengen", "runner", "grid",
	"gc", "runtime",
}

// packageLayer maps every ecgrid/internal package that runner.Run can
// reach to its layer. The packages without a layer of their own join the
// layer that uses them: geom's geometry serves the grid partition,
// hostid names hosts, stats computes the collector's summaries, trace
// records transmissions, shard is the engine's parallel variant, and
// scenario and faults are the run's configuration, which runner
// assembles. A package missing here is an error, not a silent bucket.
var packageLayer = map[string]string{
	"ecgrid/internal/sim":            "sim",
	"ecgrid/internal/shard":          "sim",
	"ecgrid/internal/radio":          "radio",
	"ecgrid/internal/trace":          "radio",
	"ecgrid/internal/spatial":        "spatial",
	"ecgrid/internal/ras":            "ras",
	"ecgrid/internal/mobility":       "mobility",
	"ecgrid/internal/node":           "node",
	"ecgrid/internal/hostid":         "node",
	"ecgrid/internal/core":           "core",
	"ecgrid/internal/protocols/span": "span",
	"ecgrid/internal/protocols/gaf":  "gaf",
	"ecgrid/internal/routing":        "routing",
	"ecgrid/internal/energy":         "energy",
	"ecgrid/internal/traffic":        "traffic",
	"ecgrid/internal/metrics":        "metrics",
	"ecgrid/internal/stats":          "metrics",
	"ecgrid/internal/scengen":        "scengen",
	"ecgrid/internal/runner":         "runner",
	"ecgrid/internal/scenario":       "runner",
	"ecgrid/internal/faults":         "runner",
	"ecgrid/internal/grid":           "grid",
	"ecgrid/internal/geom":           "grid",
}

// gcPrefixes are the runtime functions that do garbage-collector work:
// background and assisting mark workers, root and object scanning, the
// write-barrier buffer, sweeping (in the background or on allocation)
// and the scavenger. A sample with any of them on its stack is gc time.
var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.wbBufFlush", "runtime.(*wbBuf)", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime._GC",
}

// attribution is profiled samples charged to layers. Self[l] counts
// samples whose leaf, after folding, is in layer l; Calls[l] counts
// samples inside a call into l entered from another layer (or from
// outside every layer, for the run's entry point). The collector's
// background workers are entered from no layer, so Calls["gc"] counts
// only gc work that a layer's allocation triggered or assisted.
type attribution struct {
	Self, Calls map[string]int64
	Total       int64
}

func newAttribution() *attribution {
	return &attribution{Self: map[string]int64{}, Calls: map[string]int64{}}
}

// add charges the profile's samples to layers. Stack frames outside
// ecgrid/internal (runtime helpers, map access, memmove, sort) fold into
// their nearest ecgrid/internal caller; gc work goes to gc. Calls within
// one layer, directly or through a standard-library callback, are not
// cross-layer calls.
func (a *attribution) add(p *profile) error {
	cnt, err := p.valueIndex("samples/count")
	if err != nil {
		return err
	}
	for _, s := range p.Samples {
		chain, err := layerChain(s.Stack)
		if err != nil {
			return err
		}
		n := s.Values[cnt]
		leaf := "runtime"
		if len(chain) > 0 {
			leaf = chain[len(chain)-1]
		}
		a.Self[leaf] += n
		a.Total += n
		seen := map[string]bool{}
		for i, l := range chain {
			if l == "gc" && i == 0 {
				continue
			}
			if !seen[l] {
				seen[l] = true
				a.Calls[l] += n
			}
		}
	}
	return nil
}

// layerChain returns the layers a stack (leaf first) passes through,
// outermost first, with consecutive frames of one layer merged into one
// entry: each entry is one call into that layer from another. A stack
// doing gc work ends in "gc"; the gc entry stands for the collector's
// own frames, so its callers are the layers whose allocation assisted.
func layerChain(stack []string) ([]string, error) {
	var chain []string
	gc := false
	for i := len(stack) - 1; i >= 0; i-- {
		fn := stack[i]
		if isGC(fn) {
			gc = true
			break
		}
		l, err := frameLayer(fn)
		if err != nil {
			return nil, err
		}
		if l != "" && (len(chain) == 0 || chain[len(chain)-1] != l) {
			chain = append(chain, l)
		}
	}
	if gc {
		chain = append(chain, "gc")
	}
	return chain, nil
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// frameLayer returns the layer of a function, "" for one outside
// ecgrid/internal, and an error for an ecgrid/internal package that no
// layer claims.
func frameLayer(fn string) (string, error) {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, "ecgrid/internal/") {
		return "", nil
	}
	l, ok := packageLayer[pkg]
	if !ok {
		return "", fmt.Errorf("package %s (in %s) has no layer", pkg, fn)
	}
	return l, nil
}

// funcPackage returns the import path of a Go symbol such as
// "ecgrid/internal/ras.(*Bus).PageGrid" or "sort.Slice". Type arguments
// in brackets may themselves contain paths, so they are cut first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
