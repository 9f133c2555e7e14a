// Package rsscengen checks rngstream against an indexed stream family:
// the group-mobility streams must be minted by the central registry
// (sim.StreamScengenGroup), never an improvised literal — two groups
// formatting the same ad-hoc name would silently share a stream.
package rsscengen

import "fmt"

type RNG struct{}

func (r *RNG) Stream(name string) *RNG { return r }

const localGroup = "scengen.group.%s" // a local const is not the registry

func use(r *RNG, key string) {
	r.Stream(fmt.Sprintf(localGroup, key))         // want `RNG stream name must be a sim package constant`
	r.Stream(fmt.Sprintf("scengen.group.%s", key)) // want `RNG stream name must be a sim package constant`
}
