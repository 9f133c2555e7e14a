package main

// metric is one reported figure with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off, for one run of the workload.
var endToEnd = []metric{
	{"wall_s", "s"},       // host wall time of one run of the workload
	{"cpu_s", "s"},        // process user+sys time of that run (getrusage)
	{"setup_s", "s"},      // config generation, Validate, and a run to a horizon before the first event
	{"peak_rss_mb", "MB"}, // peak resident set size of the worker process
	{"alloc_mb", "MB"},    // heap bytes allocated by the run
	{"allocs_m", "M"},     // heap objects allocated by the run, in millions
}

// countMetrics are the exact per-layer counts, from runner.Results.
var countMetrics = []string{
	"radio.frames_sent", "radio.deliveries", "radio.collisions", "radio.retries",
	"radio.unicast_failed", "radio.deferred", "radio.bytes_on_air",
	"radio.rxcache_hits", "radio.rxcache_misses", "radio.rxcache_rechecks",
	"ras.grid_pages", "ras.host_pages", "ras.pages_dropped",
	"core.hellos", "core.elections", "core.retires", "core.transfers", "core.acqs",
	"core.leaves", "core.gateways", "core.nogateway", "core.sleeps", "core.fwd",
	"core.delivered", "core.dropped",
	"span.hellos", "span.coords", "span.withdrawals", "span.fwd", "span.delivered",
	"span.dropped", "span.sleeps",
	"gaf.discoveries", "gaf.actives", "gaf.sleeps", "gaf.fwd", "gaf.delivered", "gaf.dropped",
	"routing.rreqs", "routing.rreps", "routing.rerrs",
	"traffic.sent", "traffic.delivered", "energy.deaths",
}

// protocols name the per-protocol host times "protocol.<name>_s", as
// scenario.Config spells the protocol.
var protocols = []string{"ecgrid", "grid", "gaf", "aodv", "span"}

// perLayer lists every metric a traced invocation reports.
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_s", "s"}, metric{l + ".calls_s", "s"}, metric{l + ".samples", "count"})
	}
	ms = append(ms, metric{"trace.samples", "count"}, metric{"trace.overhead", "ratio"})
	for _, c := range countMetrics {
		ms = append(ms, metric{c, "count"})
	}
	ms = append(ms,
		metric{"radio.rxcache_hit_ratio", "ratio"},
		metric{"traffic.delivery_ratio", "ratio"},
		metric{"gc.cycles", "count"},
		metric{"gc.pause_s", "s"},
	)
	for _, p := range protocols {
		ms = append(ms, metric{"protocol." + p + "_s", "s"})
	}
	ms = append(ms,
		metric{"host.steal_s", "s"},
		metric{"host.loadavg", "load"},
		metric{"host.nproc", "count"},
		metric{"host.gomaxprocs", "count"},
	)
	return ms
}
