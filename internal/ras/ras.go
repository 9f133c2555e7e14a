// Package ras models the Remotely Activated Switch of the paper's §2
// (Chiasserini & Rao's RF-tag paging hardware): a tiny always-on receiver
// that can switch a sleeping host's transceiver back on when it hears the
// host's paging sequence.
//
// Two kinds of paging signals exist:
//
//   - a per-host paging sequence, equal to the host's unique ID, which
//     wakes exactly that host ("the gateway will actively wake the host
//     up" before forwarding buffered packets), and
//   - a per-grid broadcast sequence, equal to the grid coordinate, which
//     wakes every sleeping host currently inside that grid (used before
//     gateway handover so all hosts can run the election).
//
// Following the paper, the RAS consumes no accountable energy ("the power
// consumption of RAS is much lower than the transmitting/receiving power
// consumption, and can thus be ignored") and paging delivery takes a
// small fixed latency. Paging signals still respect radio range: a pager
// can only reach switches within its transmission distance.
package ras

import (
	"fmt"
	"slices"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// Switch is the per-host RAS module: the node layer registers one per
// host. Position is queried at delivery time (hosts move); Wake is
// invoked when a matching paging signal arrives and the host is asleep.
type Switch struct {
	// Position returns the host's current location.
	Position func() geom.Point
	// Asleep reports whether the host is currently in sleep mode. Wake
	// is only delivered to sleeping hosts; paging an active host is a
	// no-op (it is already listening).
	Asleep func() bool
	// Wake brings the host back to active mode. The reason tells the
	// protocol whether it was paged individually or as part of a grid
	// broadcast.
	Wake func(reason WakeReason)
}

// WakeReason says why a sleeping host was woken.
type WakeReason int

const (
	// PagedDirectly means the host's own paging sequence was received
	// (the gateway has traffic for it).
	PagedDirectly WakeReason = iota
	// PagedGrid means the grid's broadcast sequence was received (a
	// gateway election is starting).
	PagedGrid
)

// String names the wake reason.
func (r WakeReason) String() string {
	switch r {
	case PagedDirectly:
		return "paged-directly"
	case PagedGrid:
		return "paged-grid"
	default:
		return fmt.Sprintf("WakeReason(%d)", int(r))
	}
}

// Bus is the out-of-band paging medium shared by all hosts.
type Bus struct {
	engine    *sim.Engine
	partition *grid.Partition
	rangeM    float64 // paging reach in meters
	latency   float64 // seconds from page to wake
	switches  map[hostid.ID]*Switch

	// ids caches the attached IDs in ascending order for PageGrid's
	// reference sweep; rebuilt lazily after a membership change.
	// Iterating and sorting the whole map per page event is O(N log N)
	// per page, which dominates dense scenarios.
	ids      []hostid.ID
	idsDirty bool

	// PagesSent counts individual paging transmissions, for overhead
	// reporting.
	PagesSent uint64
	// GridPagesSent counts broadcast-sequence transmissions.
	GridPagesSent uint64
	// PagesDropped counts wakeups suppressed by DropHook.
	PagesDropped uint64

	// DropHook, when non-nil, is consulted once for each wakeup the bus
	// would otherwise deliver (the target is in range and asleep);
	// returning true suppresses that wakeup (fault injection: paging
	// loss). Dropped wakeups are counted in PagesDropped.
	DropHook func(target hostid.ID) bool

	// Nearby, when non-nil, is PageGrid's candidate source: it appends
	// to dst the ID of every attached switch that may lie within r of p
	// — a superset, in any order — and returns it with ok == true. The
	// runner wires it to the radio channel's spatial index
	// (radio.Channel.AppendNearby), whose hosts are the bus's switches.
	// When Nearby is nil or answers ok == false (a channel without an
	// index), PageGrid sweeps every attached switch instead: the
	// reference the index-backed page is tested against.
	Nearby func(p geom.Point, r float64, dst []hostid.ID) ([]hostid.ID, bool)
	near   []hostid.ID // Nearby's recycled result buffer
}

// DefaultLatency is the paging delay: the time for the RAS to receive a
// paging sequence and power the transceiver up. A couple of milliseconds
// is generous for RF-tag hardware and small against packet timescales.
const DefaultLatency = 2e-3

// NewBus creates a paging bus over the given grid partition. rangeM
// bounds paging reach (use the radio range) and latency is the
// page-to-wake delay.
func NewBus(engine *sim.Engine, partition *grid.Partition, rangeM, latency float64) *Bus {
	if rangeM <= 0 || latency < 0 {
		panic("ras: invalid range or latency")
	}
	return &Bus{
		engine:    engine,
		partition: partition,
		rangeM:    rangeM,
		latency:   latency,
		switches:  make(map[hostid.ID]*Switch),
	}
}

// Attach registers a host's switch. Re-attaching replaces the previous
// registration.
func (b *Bus) Attach(id hostid.ID, sw *Switch) {
	if sw == nil || sw.Position == nil || sw.Asleep == nil || sw.Wake == nil {
		panic("ras: incomplete switch registration")
	}
	b.switches[id] = sw
	b.idsDirty = true
}

// Detach removes a host's switch (battery death).
func (b *Bus) Detach(id hostid.ID) {
	delete(b.switches, id)
	b.idsDirty = true
}

// sortedIDs returns every attached ID in ascending order, rebuilding
// the cached slice only after Attach/Detach changed membership.
func (b *Bus) sortedIDs() []hostid.ID {
	if b.idsDirty {
		b.ids = b.ids[:0]
		for id := range b.switches { //simlint:ordered output is sorted below

			b.ids = append(b.ids, id)
		}
		slices.Sort(b.ids)
		b.idsDirty = false
	}
	return b.ids
}

// candidates returns, in ascending order, the IDs a grid page from
// from must test: the Nearby source's superset of the switches within
// paging range when it answers, else every attached switch.
func (b *Bus) candidates(from geom.Point) []hostid.ID {
	if b.Nearby != nil {
		if near, ok := b.Nearby(from, b.rangeM, b.near[:0]); ok {
			slices.Sort(near)
			b.near = near
			return near
		}
	}
	return b.sortedIDs()
}

// Page transmits the paging sequence of the target host from the given
// location. If the target is within paging range and asleep when the
// signal arrives, it wakes with reason PagedDirectly.
func (b *Bus) Page(from geom.Point, target hostid.ID) {
	b.PagesSent++
	b.engine.Schedule(b.latency, func() {
		sw, ok := b.switches[target]
		if !ok {
			return
		}
		if from.Dist(sw.Position()) > b.rangeM {
			return
		}
		if sw.Asleep() {
			if b.DropHook != nil && b.DropHook(target) {
				b.PagesDropped++
				return
			}
			sw.Wake(PagedDirectly)
		}
	})
}

// PageGrid transmits the broadcast sequence of cell c from the given
// location: every sleeping host currently inside c and within paging
// range wakes with reason PagedGrid.
func (b *Bus) PageGrid(from geom.Point, c grid.Coord) {
	b.GridPagesSent++
	b.engine.Schedule(b.latency, func() {
		// Every host the exact predicate below admits is within rangeM
		// of from, so the disc query misses none of them — including
		// hosts outside the area that CellOf clamps into an edge cell.
		// Visiting the candidates in ascending ID order, like the sweep,
		// keeps the wake order and the DropHook draws identical, so runs
		// are reproducible whichever source answered.
		for _, id := range b.candidates(from) {
			sw, ok := b.switches[id]
			if !ok {
				continue
			}
			pos := sw.Position()
			if b.partition.CellOf(pos) != c {
				continue
			}
			if from.Dist(pos) > b.rangeM {
				continue
			}
			if sw.Asleep() {
				if b.DropHook != nil && b.DropHook(id) {
					b.PagesDropped++
					continue
				}
				sw.Wake(PagedGrid)
			}
		}
	})
}
