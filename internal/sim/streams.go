package sim

// Central registry of RNG stream names (DESIGN.md §8, §13).
//
// Every named stream in the simulator is minted here: a stream name
// partitions the deterministic random sequence, so two call sites that
// improvise the same string silently share a stream and perturb each
// other's draws, while a drifting ad-hoc name changes every figure
// downstream. Centralizing the names makes a collision a reviewable
// diff in one file and lets the rngstream analyzer reject any RNG call
// whose stream argument is not (a Sprintf over) one of these constants.
//
// The string values are frozen: they feed the FNV hash that seeds each
// stream, so renaming one changes every simulation result at the same
// seed.
const (
	// StreamPlacement draws initial host positions.
	StreamPlacement = "place"
	// StreamMobility is the per-host waypoint stream family; expand
	// with fmt.Sprintf(StreamMobility, hostIndex).
	StreamMobility = "mob.%d"
	// StreamFlows draws traffic flow endpoints.
	StreamFlows = "flows"
	// StreamFlowPhase jitters each flow's start phase.
	StreamFlowPhase = "flowphase"
	// StreamFaultJam places jamming fault epicenters.
	StreamFaultJam = "faults.jam"
	// StreamFaultPaging draws paging-loss coin flips.
	StreamFaultPaging = "faults.page"
	// StreamGAFAnnounce jitters GAF discovery announcements.
	StreamGAFAnnounce = "gaf.ann"
	// StreamSpanPhase staggers SPAN election phases.
	StreamSpanPhase = "span.phase"
	// StreamSpanBackoff draws SPAN announcement backoff.
	StreamSpanBackoff = "span.backoff"
	// StreamHelloPhase staggers the first HELLO of each host.
	StreamHelloPhase = "core.hellophase"
	// StreamHelloJitter jitters subsequent HELLO intervals.
	StreamHelloJitter = "core.hellojitter"
	// StreamRadioBackoff draws CSMA contention-window slots.
	StreamRadioBackoff = "radio.backoff"
	// StreamScengenDeploy draws generated host deployments (cluster
	// centers, per-host placement) for internal/scengen.
	StreamScengenDeploy = "scengen.deploy"
	// StreamScengenManhattan is the per-host street-mobility stream
	// family; expand with fmt.Sprintf(StreamScengenManhattan, hostIndex).
	StreamScengenManhattan = "scengen.manhattan.%d"
	// StreamScengenGroup is the group-mobility stream family: one stream
	// per group reference point and one per member's local motion;
	// expand with fmt.Sprintf(StreamScengenGroup, key) where key is
	// "ref.<group>" or "m.<hostIndex>".
	StreamScengenGroup = "scengen.group.%s"
	// StreamScengenTraffic draws generated traffic: flow endpoints,
	// start phases, and bursty on/off period lengths.
	StreamScengenTraffic = "scengen.traffic"
)

// StreamRegistry enumerates every registered stream name (format
// families appear once, unexpanded). The companion test asserts the
// entries are pairwise distinct so a new stream cannot silently collide
// with an existing sequence.
var StreamRegistry = []string{
	StreamPlacement,
	StreamMobility,
	StreamFlows,
	StreamFlowPhase,
	StreamFaultJam,
	StreamFaultPaging,
	StreamGAFAnnounce,
	StreamSpanPhase,
	StreamSpanBackoff,
	StreamHelloPhase,
	StreamHelloJitter,
	StreamRadioBackoff,
	StreamScengenDeploy,
	StreamScengenManhattan,
	StreamScengenGroup,
	StreamScengenTraffic,
}
