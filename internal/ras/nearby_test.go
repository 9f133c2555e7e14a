package ras

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/sim"
)

// pagedHost is a stationary host on both media: it attaches to the radio
// channel (whose spatial index answers grid pages) and to the paging bus.
type pagedHost struct {
	id     hostid.ID
	pos    geom.Point
	asleep bool
	bat    *energy.Battery
}

func (h *pagedHost) ID() hostid.ID            { return h.id }
func (h *pagedHost) Position() geom.Point     { return h.pos }
func (h *pagedHost) Battery() *energy.Battery { return h.bat }
func (h *pagedHost) Deliver(*radio.Frame)     {}

// indexedHost adds radio.Mover, so the channel buckets it in its spatial
// index; a bare pagedHost lands on the channel's unindexed side list.
type indexedHost struct{ *pagedHost }

func (h indexedHost) NextExit(t float64, bounds geom.Rect) float64 {
	if bounds.Contains(h.pos) {
		return math.Inf(1)
	}
	return t
}

// pagingRun drives one randomized paging script and returns its log:
// every DropHook consultation and every wake, in the order they happened.
// The script — placements, sleep states, detach/re-attach churn, pager
// positions — depends only on seed, so the indexed and the sweep run see
// the same world; only the bus's candidate source differs.
func pagingRun(t *testing.T, seed int64, indexed bool) (log []string, clampedWakes int) {
	t.Helper()
	const (
		n      = 400
		side   = 1000.0
		cell   = 100.0
		rangeM = 250.0
		rounds = 4
	)
	script := rand.New(rand.NewSource(seed))
	drops := rand.New(rand.NewSource(seed + 1))

	e := sim.NewEngine()
	area := geom.NewRect(geom.Point{}, geom.Point{X: side, Y: side})
	part := grid.NewPartition(area, cell)
	rcfg := radio.DefaultConfig()
	rcfg.Range = rangeM
	ch := radio.NewChannel(e, sim.NewRNG(seed), rcfg)
	b := NewBus(e, part, rangeM, DefaultLatency)
	queried := 0
	if indexed {
		b.Nearby = func(p geom.Point, r float64, dst []hostid.ID) ([]hostid.ID, bool) {
			queried++
			return ch.AppendNearby(p, r, dst)
		}
	}
	page := 0
	b.DropHook = func(id hostid.ID) bool {
		drop := drops.Float64() < 0.3
		log = append(log, fmt.Sprintf("page %d hook %v drop=%v", page, id, drop))
		return drop
	}

	// Positions overhang the area by 150 m on every side: CellOf clamps
	// those hosts into the edge cells, where a page must still reach them.
	place := func() geom.Point {
		return geom.Point{X: script.Float64()*(side+300) - 150, Y: script.Float64()*(side+300) - 150}
	}
	hosts := make([]*pagedHost, n)
	attached := make([]bool, n)
	attach := func(h *pagedHost) {
		if h.id%5 == 0 {
			ch.Attach(h) // unindexed side list
		} else {
			ch.Attach(indexedHost{h})
		}
		b.Attach(h.id, &Switch{
			Position: h.Position,
			Asleep:   func() bool { return h.asleep },
			Wake: func(r WakeReason) {
				h.asleep = false
				log = append(log, fmt.Sprintf("page %d wake %v %v", page, h.id, r))
				if !area.Contains(h.pos) {
					clampedWakes++
				}
			},
		})
		attached[h.id] = true
	}
	for i := range hosts {
		hosts[i] = &pagedHost{id: hostid.ID(i), pos: place(), bat: energy.NewBattery(energy.PaperModel(), 500)}
		attach(hosts[i])
	}

	for round := 0; round < rounds; round++ {
		// Churn: detach a tenth of the hosts, re-attach detached ones
		// somewhere new, and reshuffle who sleeps.
		for _, h := range hosts {
			switch u := script.Float64(); {
			case attached[h.id] && u < 0.1:
				ch.Detach(h.id)
				b.Detach(h.id)
				attached[h.id] = false
			case !attached[h.id] && u < 0.5:
				h.pos = place()
				attach(h)
			}
			h.asleep = script.Float64() < 0.8
		}
		// Page every cell, each from a pager near its center — some
		// pagers stand in a neighboring cell or outside the area.
		for cx := 0; cx < part.Cols(); cx++ {
			for cy := 0; cy < part.Rows(); cy++ {
				c := grid.Coord{X: cx, Y: cy}
				ctr := part.Center(c)
				from := geom.Point{X: ctr.X + (script.Float64()*2-1)*150, Y: ctr.Y + (script.Float64()*2-1)*150}
				b.PageGrid(from, c)
				e.Run(e.Now() + 2*DefaultLatency)
				page++
			}
		}
	}
	if indexed && queried != rounds*part.Cols()*part.Rows() {
		t.Fatalf("index answered %d of %d pages", queried, rounds*part.Cols()*part.Rows())
	}
	return log, clampedWakes
}

// TestPageGridIndexMatchesSweep holds index-backed grid paging to the
// full sweep it replaces: with randomized hosts (some outside the area,
// clamped into edge cells; some on the channel's unindexed side list),
// switch churn between rounds, and a paging-loss hook that draws from a
// shared stream, every cell's page must consult the hook and wake hosts
// in exactly the order the sweep does.
func TestPageGridIndexMatchesSweep(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sweep, _ := pagingRun(t, seed, false)
		index, clamped := pagingRun(t, seed, true)
		if len(sweep) == 0 || clamped == 0 {
			t.Fatalf("seed %d: vacuous script (%d events, %d clamped wakes)", seed, len(sweep), clamped)
		}
		for i := 0; i < len(sweep) || i < len(index); i++ {
			var s, x string
			if i < len(sweep) {
				s = sweep[i]
			}
			if i < len(index) {
				x = index[i]
			}
			if s != x {
				t.Fatalf("seed %d: event %d: sweep %q, index %q", seed, i, s, x)
			}
		}
	}
}
