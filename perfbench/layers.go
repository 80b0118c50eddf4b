package main

import (
	"fmt"
	"io"
	"time"
)

// layerMetric is one per-layer figure of the traced run.
type layerMetric struct {
	name  string
	unit  string
	value float64
	note  string
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives every per-layer metric. Counter deltas (c) and
// runtime figures (proc) cover the untraced halves of the timed phases;
// span figures cover the traced halves. On a workload whose timed phase
// generates no pool (hit), the engine, health, doh and generator figures
// come from the last setup's prewarm, the cold work inside setup_s:
// lifetime is the client's counters since dohpool.New.
func perLayer(c, lifetime promSnapshot, proc procSample, untraced, traced, floor map[string]*phaseStats, tr *tracer) []layerMetric {
	var out []layerMetric
	add := func(name, unit string, v float64, note string) {
		out = append(out, layerMetric{name, unit, v, note})
	}

	for _, p := range protos {
		add("loadgen."+p+"_floor_p50_us", "us", floor[p].quantileUS(0.5),
			fmt.Sprintf("null responder, n=%d", floor[p].samples()))
	}
	for _, p := range protos {
		add("server."+p+"_p50_us", "us", untraced[p].quantileUS(0.5)-floor[p].quantileUS(0.5),
			"raw p50 minus the loadgen floor")
	}

	queries := c.sum("dohpool_frontend_queries_total")
	wireHits := c.sum("dohpool_wire_cache_hits_total")
	wireMisses := c.sum("dohpool_wire_cache_misses_total")
	add("frontend.slow_path_ratio", "ratio", ratio(queries-wireHits, queries),
		fmt.Sprintf("%.0f of %.0f queries", queries-wireHits, queries))
	add("frontend.dropped", "count", c.sum("dohpool_frontend_dropped_total"), "")
	add("frontend.write_errors", "count", c.sum("dohpool_frontend_write_errors_total"), "")
	sockets := c.values("dohpool_frontend_udp_socket_packets_total")
	maxSock, allSock := 0.0, 0.0
	for _, v := range sockets {
		maxSock = max(maxSock, v)
		allSock += v
	}
	add("frontend.udp_socket_skew", "ratio", ratio(maxSock, allSock),
		fmt.Sprintf("busiest of %d sockets' share of udp packets", len(sockets)))

	add("dnscache.wire_hit_ratio", "ratio", ratio(wireHits, wireHits+wireMisses), "")
	add("dnscache.evictions", "count", c.sum("dohpool_cache_evictions_total"), "")

	gens := func(s promSnapshot) (inline, background float64) {
		return s.sum("dohpool_engine_generations_total", `trigger="inline"`),
			s.sum("dohpool_engine_generations_total", `trigger="background"`)
	}
	inline, background := gens(c)
	add("engine.inline_generations", "count", inline, "")
	add("engine.coalesced", "count", c.sum("dohpool_engine_lookups_total", `outcome="coalesced"`), "")
	cold, coldNote := c, "timed phase"
	if inline+background == 0 {
		cold, coldNote = lifetime, "prewarm"
	}
	coldInline, coldBackground := gens(cold)
	coldGens := coldInline + coldBackground
	add("engine.generation_p50_us", "us", cold.histQuantileUS("dohpool_engine_pool_generation_seconds", 0.5),
		fmt.Sprintf("%s, %.0f generations", coldNote, coldGens))

	add("refresh.attempts", "count", c.sum("dohpool_refresh_attempts_total"), "")
	add("refresh.failures", "count", c.sum("dohpool_refresh_failures_total"), "")
	add("refresh.background_share", "ratio", ratio(background, inline+background),
		fmt.Sprintf("%.0f of %.0f generations", background, inline+background))

	add("health.exchanges_per_generation", "ratio", ratio(cold.sum("dohpool_resolver_exchanges_total"), coldGens),
		coldNote+"; 3.0 is the useful minimum")
	add("health.hedges", "count", c.sum("dohpool_resolver_hedges_total"), "")
	add("health.hedge_wins", "count", c.sum("dohpool_resolver_hedge_wins_total"), "")

	ts := tr.derive("timed")
	if ts.exchanges == 0 {
		ts = tr.derive("prewarm")
	}
	add("doh.exchange_p50_us", "us", ts.exchangeP50US,
		fmt.Sprintf("traced %s, %d exchanges, %d caused by refresh", ts.phaseUsed, ts.exchanges, ts.refreshCaused))
	add("doh.new_conns", "count", float64(ts.newConns), "traced "+ts.phaseUsed)
	add("generator.quorum_wait_p50_us", "us", ts.quorumWaitP50,
		fmt.Sprintf("last exchange end minus first, %d queries", ts.joinedQueries))
	add("generator.self_p50_us", "us", ts.selfP50US,
		fmt.Sprintf("query span minus its exchanges, %d queries", ts.joinedQueries))

	answers := 0
	for _, st := range untraced {
		answers += st.samples()
	}
	n := float64(answers)
	add("runtime.alloc_bytes_per_query", "B", ratio(proc.allocBytes, n), fmt.Sprintf("whole process, %d answers", answers))
	add("runtime.gc_cycles_per_kquery", "count", ratio(1000*proc.gcCycles, n), "")
	add("runtime.cpu_us_per_query", "us", ratio(float64(proc.cpu/time.Nanosecond)/1e3, n), "user+system, whole process")

	for _, p := range protos {
		add("trace."+p+"_p50_overhead_us", "us", traced[p].quantileUS(0.5)-untraced[p].quantileUS(0.5),
			"traced half minus untraced half")
	}
	return out
}

func reportLayers(w io.Writer, layers []layerMetric) {
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-34s %12.3f %-5s %s\n", l.name, l.value, l.unit, l.note)
	}
}
