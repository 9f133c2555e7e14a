package main

import (
	"fmt"
	"math"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// checkResults is the correctness gate of one run. It returns one
// message per violated invariant; the coordinator counts a run with any as a
// failed operation.
func checkResults(r *runner.Results) []string {
	var bad []string
	fail := func(format string, a ...any) {
		bad = append(bad, fmt.Sprintf("%s: ", r.Cfg.Protocol)+fmt.Sprintf(format, a...))
	}
	if r.FrameLeaks != 0 {
		fail("%d pooled frames leaked", r.FrameLeaks)
	}
	if r.Radio.FramesPooled != r.Radio.FramesReleased {
		fail("%d frames pooled but %d released", r.Radio.FramesPooled, r.Radio.FramesReleased)
	}
	if r.Delivered > r.Sent {
		fail("delivered %d packets of %d sent", r.Delivered, r.Sent)
	}
	floats := map[string]float64{
		"DeliveryRate":          r.DeliveryRate,
		"MeanLatency":           r.MeanLatency,
		"MaxLatency":            r.MaxLatency,
		"MedianLatency":         r.MedianLatency,
		"FirstDeathAt":          r.FirstDeathAt,
		"LastAlive":             r.LastAlive,
		"MeanReelectionLatency": r.MeanReelectionLatency,
		"MeanRouteRepairTime":   r.MeanRouteRepairTime,
		"InFaultDeliveryRate":   r.InFaultDeliveryRate,
		"OutFaultDeliveryRate":  r.OutFaultDeliveryRate,
	}
	for _, series := range [][]struct{ T, V float64 }{r.Alive, r.Aen} {
		for _, p := range series {
			if !finite(p.T) || !finite(p.V) {
				fail("non-finite series point (%v, %v)", p.T, p.V)
				break
			}
		}
	}
	for _, name := range sortedKeys(floats) {
		if v := floats[name]; !finite(v) {
			fail("%s = %v", name, v)
		}
	}
	return bad
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// protocolCounters maps each protocol's Results.Protocol counters to
// the layer that does the counted work. Route discovery (RREQ, RREP,
// RERR) is charged to routing whichever protocol sends it; the pages an
// ECGRID gateway sends are the RAS layer's traffic.
var protocolCounters = map[scenario.ProtocolKind]map[string]string{
	scenario.ECGRID: coreCounters,
	scenario.GRID:   coreCounters,
	scenario.SPAN: {
		"hellos": "span.hellos", "coords": "span.coords", "withdrawals": "span.withdrawals",
		"fwd": "span.fwd", "delivered": "span.delivered", "dropped": "span.dropped",
		"sleeps": "span.sleeps", "rreqs": "routing.rreqs", "rreps": "routing.rreps",
	},
	scenario.GAF:  gafCounters,
	scenario.AODV: gafCounters,
}

var coreCounters = map[string]string{
	"hellos": "core.hellos", "elections": "core.elections", "retires": "core.retires",
	"transfers": "core.transfers", "acqs": "core.acqs", "leaves": "core.leaves",
	"gateways": "core.gateways", "nogateway": "core.nogateway", "sleeps": "core.sleeps",
	"fwd": "core.fwd", "delivered": "core.delivered", "dropped": "core.dropped",
	"rreqs": "routing.rreqs", "rreps": "routing.rreps", "rerrs": "routing.rerrs",
	"pages": "ras.host_pages", "gridpages": "ras.grid_pages",
}

var gafCounters = map[string]string{
	"discoveries": "gaf.discoveries", "actives": "gaf.actives", "sleeps": "gaf.sleeps",
	"fwd": "gaf.fwd", "delivered": "gaf.delivered", "dropped": "gaf.dropped",
	"rreqs": "routing.rreqs", "rreps": "routing.rreps", "rerrs": "routing.rerrs",
}

// addCounts adds the run's exact counts, by metric name, to counts.
func addCounts(counts map[string]float64, r *runner.Results) {
	add := func(name string, v uint64) { counts[name] += float64(v) }
	add("radio.frames_sent", r.Radio.FramesSent)
	add("radio.deliveries", r.Radio.Deliveries)
	add("radio.collisions", r.Radio.Collisions)
	add("radio.retries", r.Radio.Retries)
	add("radio.unicast_failed", r.Radio.UnicastFailed)
	add("radio.deferred", r.Radio.DeferredAccess)
	add("radio.bytes_on_air", r.Radio.BytesOnAir)
	add("radio.rxcache_hits", r.RxCache.Hits)
	add("radio.rxcache_misses", r.RxCache.Misses)
	add("radio.rxcache_rechecks", r.RxCache.Rechecks)
	add("ras.pages_dropped", r.PagesDropped)
	add("traffic.sent", uint64(r.Sent))
	add("traffic.delivered", uint64(r.Delivered))
	add("energy.deaths", uint64(r.Deaths))
	for counter, name := range protocolCounters[r.Cfg.Protocol] {
		add(name, r.Protocol[counter])
	}
}
