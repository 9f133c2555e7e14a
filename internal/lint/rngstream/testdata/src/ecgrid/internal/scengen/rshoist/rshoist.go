// Package rshoist checks rngstream against the hoisted-name pattern: a
// factory mints its per-group stream names once from the registry
// (fmt.Sprintf over sim.StreamScengenGroup) and stores them in a slice,
// so the draw site passes a variable the analyzer cannot trace to the
// registry and must be annotated — while an unannotated variable name
// is still flagged, keeping improvised caches visible.
package rshoist

type RNG struct{}

func (r *RNG) Intn(name string, n int) int { return 0 }

type factory struct {
	rng  *RNG
	refs []string
}

func pick(f *factory, g, n int) int {
	//simlint:stream refs[g] is fmt.Sprintf(sim.StreamScengenGroup, "ref.<g>"), hoisted at construction
	i := f.rng.Intn(f.refs[g], n)
	return i
}

func unannotated(f *factory, g, n int) int {
	return f.rng.Intn(f.refs[g], n) // want `RNG stream name must be a sim package constant`
}
