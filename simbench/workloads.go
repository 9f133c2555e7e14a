package main

import (
	"fmt"
	"math"

	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// A workload is a kind of simulation input. A run of it calls
// runner.Run once per config, each call in a fresh worker process.
type workload struct {
	name string
	// configs builds a run's configs from a simulation seed; equal seeds
	// give equal configs.
	configs func(seed int64) []scenario.Config
	// inputs is how many simulation seeds one benchmark seed stands for.
	// A run's cost varies from seed to seed (by 2–8 % in allocations and
	// frames sent, and up to twofold in SPAN's host time), so every
	// metric covers this many inputs; inputs+1 runs take under 50 s,
	// the benchmark's measuring time, even on a slowed machine.
	inputs int
}

var workloads = []workload{
	{name: "paper-protocols", configs: paperProtocols, inputs: 9},
	{name: "dense-5k", configs: dense5k, inputs: 6},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// paperProtocols is the paper's common setup (100 hosts, 1 km², 10 CBR
// flows of 1 pkt/s × 512 B, v ≤ 1 m/s, pause 0, 500 J) at the Figs 6/7
// horizon of 590 s, once for each protocol.
func paperProtocols(seed int64) []scenario.Config {
	protos := []scenario.ProtocolKind{
		scenario.ECGRID, scenario.GRID, scenario.GAF, scenario.AODV, scenario.SPAN,
	}
	cfgs := make([]scenario.Config, len(protos))
	for i, p := range protos {
		cfg := scenario.Default(p)
		cfg.Duration = 590
		cfg.Seed = seed
		cfgs[i] = cfg
	}
	return cfgs
}

// dense5k is scenarios/dense-manhattan-10k.json scaled to 5,000 hosts at
// the same density: the side shrinks by √2, and so do the obstacles;
// half the clusters and half the flows keep hosts per cluster and
// offered load per host unchanged. ECGRID, 10 simulated seconds.
func dense5k(seed int64) []scenario.Config {
	const scale = 1 / math.Sqrt2
	side := math.Round(5000 * scale)
	ob := func(minX, minY, maxX, maxY, atten float64) scengen.Obstacle {
		return scengen.Obstacle{
			MinX: math.Round(minX * scale), MinY: math.Round(minY * scale),
			MaxX: math.Round(maxX * scale), MaxY: math.Round(maxY * scale),
			Atten: atten,
		}
	}
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 5000
	cfg.AreaSize = side
	cfg.MaxSpeedMS = 10
	cfg.Flows = 10
	cfg.TrafficStart = 2
	cfg.Duration = 10
	cfg.SampleEvery = 5
	cfg.Seed = seed
	cfg.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 25, StdDevM: 450},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 250},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 4, MeanOffS: 6},
		Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
			ob(2200, 0, 2300, 3500, 0.6),
			ob(0, 4100, 4000, 4200, 1),
		}},
	}
	return []scenario.Config{cfg}
}
