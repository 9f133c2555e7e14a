package runner

import (
	"fmt"
	"testing"

	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
)

// TestSpatialIndexEquivalence proves the radio channel's spatial
// neighbor index is an optimization, not a model change: every scenario
// must produce byte-identical metrics and trace fingerprints with the
// index (the default) and with Radio.BruteForce, which scans the full
// population exactly as the seed implementation did. The index also
// answers RAS grid pages, so the same comparison holds index-backed
// paging against the full paging sweep. The matrix covers both
// protocols, a jamming fault plan (the Interceptor path disables the
// Sure-candidate shortcut), and sparse vs. dense populations — dense is
// where the index actually prunes, sparse is where bucket boundary
// cases are most visible — plus a 1000-host network at paper density
// and a dense generated deployment, where grid pages meet crowded cells.
func TestSpatialIndexEquivalence(t *testing.T) {
	type variant struct {
		proto scenario.ProtocolKind
		fault string
	}
	variants := []variant{
		{scenario.ECGRID, ""},
		{scenario.SPAN, ""},
		{scenario.ECGRID, "jam-center"},
	}
	type tc struct {
		name string
		cfg  scenario.Config
	}
	var cases []tc
	for _, v := range variants {
		for _, hosts := range []int{20, 200} {
			name := fmt.Sprintf("%s-n%d", v.proto, hosts)
			if v.fault != "" {
				name = fmt.Sprintf("%s-%s-n%d", v.proto, v.fault, hosts)
			}
			cfg := scenario.Default(v.proto)
			cfg.Hosts = hosts
			cfg.Duration = 90
			if hosts >= 200 {
				cfg.Duration = 45 // dense runs are slow; keep CI snappy
			}
			cfg.Seed = int64(17 + hosts)
			if v.fault != "" {
				cfg.Faults = mustPreset(v.fault, cfg.Hosts, cfg.AreaSize, cfg.Duration)
			}
			cases = append(cases, tc{name, cfg})
		}
	}

	// Paper-like density at 1000 hosts needs a 3000 m side; the
	// simulated span stays short, since the point is coverage of the
	// population, not a long campaign.
	large := scenario.Default(scenario.ECGRID)
	large.Hosts = 1000
	large.AreaSize = 3000
	large.Duration = 8
	large.Flows = 30
	large.Seed = 1031
	cases = append(cases, tc{"ecgrid-n1000", large})

	// Clustered street traffic at several hundred hosts per square
	// kilometre: every grid page lands among dozens of hosts, and
	// cluster scatter puts some outside the area, in clamped edge cells.
	dense := scenario.Default(scenario.ECGRID)
	dense.Hosts = 1500
	dense.AreaSize = 1500
	dense.Duration = 6
	dense.Flows = 10
	dense.TrafficStart = 1
	dense.MaxSpeedMS = 10
	dense.Seed = 37
	dense.Mobility = ""
	dense.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 6, StdDevM: 250},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 250},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 2, MeanOffS: 2},
	}
	cases = append(cases, tc{"ecgrid-dense-generated", dense})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := c.cfg
			ref.Radio.BruteForce = true
			indexed := fingerprint(c.cfg)
			brute := fingerprint(ref)
			if indexed != brute {
				t.Fatalf("spatial index diverged from brute-force reference — first divergence:\n%s",
					firstDiff(indexed, brute))
			}
		})
	}
}

// TestSpatialIndexEquivalenceGenerated repeats the brute-force check on
// a generated (non-figure) scenario: clustered placement concentrates
// hosts per bucket, street mobility re-buckets on every intersection
// turn, and the obstacle interceptor forces the no-shortcut reception
// path — the combination most likely to expose an index divergence.
func TestSpatialIndexEquivalenceGenerated(t *testing.T) {
	cfg := scenario.Default(scenario.ECGRID)
	cfg.Hosts = 60
	cfg.Duration = 60
	cfg.Seed = 23
	cfg.Gen = &scengen.Spec{
		Deployment: &scengen.Deployment{Kind: scengen.DeployClustered, Clusters: 3, StdDevM: 100},
		Mobility:   &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 125},
		Traffic:    &scengen.Traffic{Kind: scengen.TrafficOnOff, MeanOnS: 8, MeanOffS: 6},
		Propagation: &scengen.Propagation{Obstacles: []scengen.Obstacle{
			{MinX: 300, MinY: 200, MaxX: 340, MaxY: 800, Atten: 0.7},
		}},
	}
	ref := cfg
	ref.Radio.BruteForce = true
	indexed := fingerprint(cfg)
	brute := fingerprint(ref)
	if indexed != brute {
		t.Fatalf("spatial index diverged on a generated scenario — first divergence:\n%s",
			firstDiff(indexed, brute))
	}
}

// TestSchedulerEquivalence proves the calendar-queue scheduler is an
// optimization, not a model change: every scenario must produce
// byte-identical metrics and trace fingerprints under the calendar
// queue (the default) and under Config.HeapScheduler, the binary-heap
// reference that reproduces the seed implementation's event order
// directly from the (when, seq) comparator. The matrix mirrors the
// spatial test: both protocols, plus sparse vs. dense populations —
// dense runs push the calendar through resize cycles and long
// same-bucket chains, sparse runs exercise the empty-year scan and
// the min-event jump.
func TestSchedulerEquivalence(t *testing.T) {
	for _, proto := range []scenario.ProtocolKind{scenario.ECGRID, scenario.SPAN} {
		for _, hosts := range []int{20, 200} {
			t.Run(fmt.Sprintf("%s-n%d", proto, hosts), func(t *testing.T) {
				cfg := scenario.Default(proto)
				cfg.Hosts = hosts
				cfg.Duration = 90
				if hosts >= 200 {
					cfg.Duration = 45 // dense runs are slow; keep CI snappy
				}
				cfg.Seed = int64(29 + hosts)

				ref := cfg
				ref.HeapScheduler = true

				calendar := fingerprint(cfg)
				heap := fingerprint(ref)
				if calendar != heap {
					t.Fatalf("calendar queue diverged from heap reference — first divergence:\n%s",
						firstDiff(calendar, heap))
				}
			})
		}
	}
}
