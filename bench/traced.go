package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
)

// perLayer names every single-layer metric the traced run prints. Layers are
// this repository's packages. None has a bound: they explain a move in an
// end-to-end metric, they do not gate one. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	// serve.wire: DARTWIRE1 codec, per access in 64-record frames.
	{Name: "serve.wire.encode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.wire.decode_req_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.wire.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.wire.rtt_1rec_us", Unit: "us", Better: "lower"},
	// The two end-to-end metrics that cannot carry one relative bound for all
	// workloads (see endToEnd), as the traced run's untraced rounds read them.
	{Name: "serve.req_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_access", Unit: "count", Better: "lower"},
	// serve.engine / serve.batcher.
	{Name: "serve.engine.actor_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.accepted", Unit: "count", Better: "higher"},
	{Name: "serve.batcher.batches", Unit: "count", Better: "lower"},
	{Name: "serve.batcher.queries", Unit: "count", Better: "higher"},
	{Name: "serve.batcher.avg_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batcher.max_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batcher.starved_batches", Unit: "count", Better: "lower"},
	{Name: "serve.batcher.max_wait_batches", Unit: "count", Better: "lower"},
	{Name: "serve.batcher.handoff_ns", Unit: "ns", Better: "lower"},
	// sim.
	{Name: "sim.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.offline_run_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "sim.demand_misses", Unit: "count", Better: "lower"},
	{Name: "sim.late_covered", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_issued", Unit: "count", Better: "lower"},
	{Name: "sim.prefetch_useful", Unit: "count", Better: "higher"},
	{Name: "sim.prefetch_dropped", Unit: "count", Better: "lower"},
	{Name: "sim.pollution", Unit: "count", Better: "lower"},
	{Name: "sim.coverage_pct", Unit: "%", Better: "higher"},
	// prefetch.
	{Name: "prefetch.stride_ns", Unit: "ns", Better: "lower"},
	{Name: "prefetch.input_ns", Unit: "ns", Better: "lower"},
	{Name: "prefetch.apply_ns", Unit: "ns", Better: "lower"},
	// tabular: float tables, their leaves, the int8 twins, the artifact.
	{Name: "tabular.query_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.query_allocs", Unit: "count", Better: "lower"},
	{Name: "tabular.querybatch16_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.embed_linear_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.msa_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.ffn_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.head_linear_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.passthrough_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.int8.query_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.int8.query_allocs", Unit: "count", Better: "lower"},
	{Name: "tabular.int8.querybatch16_ns", Unit: "ns", Better: "lower"},
	{Name: "tabular.storage_bytes", Unit: "B", Better: "lower"},
	{Name: "tabular.int8.storage_bytes", Unit: "B", Better: "lower"},
	{Name: "tabular.model_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "tabular.int8.tabularize_s", Unit: "s", Better: "lower"},
	{Name: "tabular.int8.f1", Unit: "f1", Better: "higher"},
	// pq / mat / nn.
	{Name: "pq.lsh_encode_row_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.accum_row_int8_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.student_forward16_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.teacher_forward16_ns", Unit: "ns", Better: "lower"},
	// online: counts over the traced run's rounds, then forced swaps.
	{Name: "online.ingested", Unit: "count", Better: "higher"},
	{Name: "online.dropped", Unit: "count", Better: "lower"},
	{Name: "online.train_steps", Unit: "count", Better: "higher"},
	{Name: "online.distill_steps", Unit: "count", Better: "higher"},
	{Name: "online.teacher_published", Unit: "count", Better: "higher"},
	{Name: "online.student_published", Unit: "count", Better: "higher"},
	{Name: "online.dart_published", Unit: "count", Better: "higher"},
	{Name: "online.dart_skips", Unit: "count", Better: "lower"},
	{Name: "online.tabularize_ms", Unit: "ms", Better: "lower"},
	{Name: "online.unversioned_share", Unit: "share", Better: "lower"},
	{Name: "online.ring_push_ns", Unit: "ns", Better: "lower"},
	{Name: "online.swap_teacher_us", Unit: "us", Better: "lower"},
	{Name: "online.swap_student_us", Unit: "us", Better: "lower"},
	{Name: "online.swap_dart_ms", Unit: "ms", Better: "lower"},
	// route.
	{Name: "route.hop_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "route.backends_used", Unit: "count", Better: "higher"},
	{Name: "route.backends_healthy", Unit: "count", Better: "higher"},
	// core / trace: what set-up is made of.
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.f1_teacher", Unit: "f1", Better: "higher"},
	{Name: "core.f1_student", Unit: "f1", Better: "higher"},
	{Name: "core.f1_dart", Unit: "f1", Better: "higher"},
	{Name: "trace.generate_ns_per_record", Unit: "ns", Better: "lower"},
	// tracing itself.
	{Name: "trace.span_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}

// tracedRounds is how many rounds the traced run drives with spans off and how
// many with spans on, alternating so that drift cancels; the throughput
// difference is the span overhead.
const tracedRounds = 2

// runTraced is the traced run: one set-up, tracedRounds rounds untraced
// alternating with tracedRounds with a span around every request, the
// counters every layer exposes read before and after, forced swaps, and then —
// with the system stopped — the layer ladder on the workload's own records.
func runTraced(w workload, opt options) (result, error) {
	if opt.quick {
		w = w.quick()
	}
	m := opt.model
	if m == nil {
		var err error
		if m, err = buildModel(opt.size()); err != nil { // the ladder needs it on every workload
			return result{}, err
		}
	}
	p, err := setUp(w, opt.seed, opt.size(), m)
	if err != nil {
		return result{}, err
	}
	stopped := false
	defer func() {
		if !stopped {
			p.tearDown()
		}
	}()

	before := p.sys.counters()
	plain, spanned := &timed{}, &timed{}
	rec := newSpanRecorder()
	root := rec.begin("workload", 0, 0)
	for i := 0; i < tracedRounds; i++ {
		plain.add(p, p.round(nil, 0, false))
		rs := rec.begin("round", root, 0)
		spanned.add(p, p.round(rec, rs, false))
		rec.end(rs)
	}
	rec.end(root)
	values := p.sys.counters()
	for k, v := range values {
		if !gauges[k] {
			values[k] = v - before[k]
		}
	}
	p.sys.forcedSwaps(values)
	p.tearDown()
	stopped = true

	all := &timed{rounds: append(append([]roundStats(nil), plain.rounds...), spanned.rounds...)}
	attempted, failed, firstErr := all.ops()
	if firstErr != nil {
		return result{}, firstErr
	}
	if values["serve.batcher.batches"] > 0 {
		values["serve.batcher.avg_batch"] = values["serve.batcher.queries"] / values["serve.batcher.batches"]
	}
	unversioned := 0
	for _, st := range all.rounds {
		unversioned += st.unversioned
	}
	if !w.frozen() {
		values["online.unversioned_share"] = float64(unversioned) / float64(attempted)
	}
	values["serve.req_p99_us"] = percentile(plain.lat, 99)
	values["serve.allocs_per_access"] = plain.allocsPerAccess()
	values["trace.span_overhead_pct"] = 100 * (plain.throughput() - spanned.throughput()) / plain.throughput()

	merged := all.merged()
	values["sim.demand_misses"] = float64(merged.DemandMisses)
	values["sim.late_covered"] = float64(merged.LateCovered)
	values["sim.prefetch_issued"] = float64(merged.PrefetchIssued)
	values["sim.prefetch_useful"] = float64(merged.PrefetchUseful)
	values["sim.prefetch_dropped"] = float64(merged.PrefetchDropped)
	values["sim.pollution"] = float64(merged.Pollution)
	none := mergeResults(m.offlineResults(w, "none", p.traces))
	perRound := mergeResults(all.rounds[0].results)
	values["sim.coverage_pct"] = coveragePct(none, perRound)

	runtime.GC() // the rounds' garbage is not the ladder's cost
	ladder, err := layerLadder(w, m, p.traces[0])
	if err != nil {
		return result{}, err
	}
	for k, v := range ladder {
		values[k] = v
	}
	if err := loopbackRungs(values, m, opt); err != nil {
		return result{}, err
	}
	// The gap between the CPU an access cost end to end and the sum of the
	// self times of the layers it crossed. Reported, not gated: a gap is a
	// finding (sockets, scheduling, GC), not a failure.
	cpuUs := plain.cpuPerAccess()
	sumUs := ladderSumUs(w, values)
	values["trace.unattributed_pct"] = 100 * (cpuUs - sumUs) / cpuUs
	fmt.Printf("%-18s cpu_us_per_access %.4g us, ladder sum %.4g us\n", w.name, cpuUs, sumUs)

	path := filepath.Join(opt.outDir, "trace-"+w.name+".json")
	if err := rec.write(path); err != nil {
		return result{}, err
	}
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-18s span %-10s self %10.3f ms\n", w.name, n, float64(self[n])/1e6)
	}
	fmt.Printf("%-18s %d spans written to %s\n", w.name, len(rec.spans), path)
	return newResult(w, opt, attempted, failed, perLayer, values), nil
}

// ladderSumUs adds the self times of the layers one access of the workload
// crosses, in µs: the codec and one actor hop per frame on the wire, the
// simulator step, and either the stride prefetcher or input → batcher → table
// query → apply.
func ladderSumUs(w workload, v map[string]float64) float64 {
	ns := v["sim.step_ns"] + v["serve.engine.actor_hop_ns"]/float64(w.frame)
	if !w.fanin {
		ns += v["serve.wire.encode_req_ns"] + v["serve.wire.decode_req_ns"] + v["serve.wire.encode_reply_ns"]
	}
	if w.routed {
		ns += 1e3 * v["route.hop_us_per_frame"] / float64(w.frame)
	}
	switch w.table {
	case "":
		ns += v["prefetch.stride_ns"]
	case "int8":
		ns += v["prefetch.input_ns"] + v["serve.batcher.handoff_ns"] + v["tabular.int8.query_ns"] + v["prefetch.apply_ns"]
	default:
		ns += v["prefetch.input_ns"] + v["serve.batcher.handoff_ns"] + v["tabular.query_ns"] + v["prefetch.apply_ns"]
	}
	return ns / 1e3
}

// loopbackRungs are the top of the ladder: whole requests over loopback TCP,
// driven like the workloads they shrink. A 1-record frame with no prefetcher
// is the floor a round trip costs; the router hop is the median 64-record
// stride frame through the router minus the same frame direct, both under
// their workload's two connections (a lone connection measures the
// scheduler's wake-up latency instead, which more traffic shortens).
func loopbackRungs(values map[string]float64, m *model, opt options) error {
	p50 := func(w workload) (float64, error) {
		w.segments = 1
		p, err := setUp(w, opt.seed, opt.size(), m)
		if err != nil {
			return 0, err
		}
		defer p.tearDown()
		st := p.round(nil, 0, false)
		if st.err != nil {
			return 0, st.err
		}
		var lat []float64
		for _, l := range p.lat {
			lat = append(lat, l...)
		}
		return percentile(lat, 50), nil
	}
	var err error
	if values["serve.wire.rtt_1rec_us"], err = p50(workload{
		name: "rtt-1rec", prefetcher: "none", sessions: 1, accesses: 2000, frame: 1,
	}); err != nil {
		return err
	}
	direct, _ := workloadByName("wire-stride")
	routed, _ := workloadByName("routed-stride")
	direct.accesses, routed.accesses = 64000, 64000
	if opt.quick {
		direct, routed = direct.quick(), routed.quick()
	}
	d, err := p50(direct)
	if err != nil {
		return err
	}
	r, err := p50(routed)
	if err != nil {
		return err
	}
	values["route.hop_us_per_frame"] = r - d
	return nil
}
