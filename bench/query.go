package main

import (
	"fmt"
	"runtime"
	"time"

	"deepflow/internal/server"
	"deepflow/internal/trace"
)

// query-mixed: a two-shard durable server preloaded (untimed) with the
// recorded corpus answers the fixed troubleshooting session closed-loop —
// first quiet, then while a feeder streams further recorded batches
// open-loop at a fixed rate well under capacity. It is the read-heavy use
// of the store ingest-durable writes: an ingest gain bought with longer
// lock holds or a slower index shows here, and nowhere in ingest-durable.

// planPicks is how many distinct sessions the plan holds; the phases cycle
// through them.
const planPicks = 20

// ingester is what the open-loop feeder needs of a server.
type ingester interface {
	IngestBatch([]byte) error
	Drain()
}

type feedStats struct {
	freshMS []float64 // due time to Drain returned, per batch
	lateMS  []float64 // due time to actually offered, per batch
	spans   int
	err     error
}

// streamOpenLoop offers the batches on a schedule that does not slow when
// the server does: batch i is due when the spans before it, at rate spans/s,
// have gone out. Freshness is timed from the due time, so a stall charges
// every batch it delays, not just the one it hit.
func streamOpenLoop(dst ingester, batches []wireBatch, rate float64, k *track) feedStats {
	var st feedStats
	start := time.Now()
	for _, wb := range batches {
		due := start.Add(time.Duration(float64(st.spans) / rate * float64(time.Second)))
		st.spans += wb.spans
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lateMS = append(st.lateMS, ms(time.Since(due)))
		end := k.span("server.ingest_batch")
		err := dst.IngestBatch(wb.data)
		end()
		if err != nil {
			st.err = err
			return st
		}
		end = k.span("server.drain")
		dst.Drain()
		end()
		st.freshMS = append(st.freshMS, ms(time.Since(due)))
	}
	return st
}

type queryState struct {
	c        *corpus
	preload  []wireBatch
	stream   []wireBatch
	preSpans int
	plan     *sessionPlan
	srv      *server.Server
	ref      []sessionDigest // per plan pick, first answer seen
}

// ask runs session i and holds its digest to the first answer that pick
// got. During the mixed phase only the stable digest can be compared.
func (st *queryState) ask(r *report, i int, mixed bool, k *track, log *sessionLog) (sessionTimes, error) {
	d, t, err := runSession(st.srv, st.plan, i, k, log)
	r.attempted++
	if err != nil {
		return t, err
	}
	pick := i % len(st.plan.picks)
	switch ref := st.ref[pick]; {
	case ref == (sessionDigest{}):
		if !mixed {
			st.ref[pick] = d
		}
	case mixed && d.stable != ref.stable, !mixed && d != ref:
		r.problem("session %d (pick %d, mixed=%v): digest %016x/%016x, first answer %016x/%016x",
			i, pick, mixed, d.stable, d.full, ref.stable, ref.full)
	}
	return t, nil
}

func runQuery(x *run) error {
	seconds := x.budget.Seconds()
	// The mixed phase belongs to the traced run: its numbers do not repeat
	// within a tenth on a shared two-core box (see README.md), so they are
	// ledger rows, and the untraced run neither records nor streams them.
	streamSpans, streamVirt := 0, time.Duration(0)
	if x.tr != nil {
		streamSpans = int(x.sz.streamRate * seconds / 2)
		// Spans the simulated service map produces per virtual second: 47
		// per Bookinfo request, 28 per polyglot request.
		perVirtSec := 47*x.sz.bookinfoRPS + 28*x.sz.polyglotRPS
		streamVirt = (time.Duration(float64(streamSpans)/perVirtSec*float64(time.Second)) + 2*flushTick).Truncate(flushTick)
	}

	var residentB []float64 // one per set-up: each preloads a fresh server
	st, err := setUp(x, func() (*queryState, error) {
		c, err := recordCorpus(x.seed, x.sz, x.sz.preloadVirt+streamVirt, false, x.track(0))
		if err != nil {
			return nil, err
		}
		st := &queryState{c: c, ref: make([]sessionDigest, planPicks)}
		want := streamSpans
		for _, wb := range c.batches {
			switch {
			case wb.tick < int(x.sz.preloadVirt/flushTick):
				st.preload = append(st.preload, wb)
				st.preSpans += wb.spans
			case want > 0:
				st.stream = append(st.stream, wb)
				want -= wb.spans
			}
		}
		if st.plan, err = newPlan(c.roots, x.sz.preloadVirt, planPicks, x.sz); err != nil {
			return nil, err
		}
		dir, err := x.dir("query")
		if err != nil {
			return nil, err
		}
		heap0 := heapAfterGC()
		if st.srv, _, err = newDurable(c, dir, x.track(0)); err != nil {
			return nil, err
		}
		if err := feed(st.srv, st.preload, nil); err != nil {
			return nil, err
		}
		if heap1 := heapAfterGC(); heap1 > heap0 {
			residentB = append(residentB, float64(heap1-heap0)/float64(st.preSpans))
		}
		checkIngest(x.rep, st.srv, st.preSpans)
		for i := 0; i < 2; i++ { // warm-up sessions, discarded
			if _, err := st.ask(x.rep, i, false, nil, nil); err != nil {
				return nil, err
			}
		}
		return st, nil
	}, func(st *queryState) { st.srv.Kill() })
	if err != nil {
		return err
	}
	defer st.srv.Kill()

	// Quiet phase: chunks of sessions, closed loop, nothing else running;
	// a chunk is this workload's rep. On the traced run every other
	// session is traced.
	var log *sessionLog
	if x.tr != nil {
		log = &sessionLog{}
	}
	chunks := max(x.sz.minReps, int(seconds))
	var sessMS, tracedMS, overviewUS, searchMS, drillMS, chunkRate, chunkCPU, chunkP50 []float64
	tracedSpans, asked := 0, 0
	for c := 0; c < chunks; c++ {
		runtime.GC()
		spans := 0
		var ms1 []float64
		cpu0, t0 := cpuNow(), time.Now()
		for j := 0; j < x.sz.chunkSessions; j++ {
			var k *track
			if asked%2 == 1 {
				k = x.track(0)
			}
			t, err := st.ask(x.rep, asked, false, k, log)
			if err != nil {
				return err
			}
			asked++
			spans += t.resultSpans
			ms1 = append(ms1, ms(t.total()))
			if k != nil {
				tracedMS = append(tracedMS, ms(t.total()))
				tracedSpans += t.resultSpans
				continue
			}
			sessMS = append(sessMS, ms(t.total()))
			overviewUS = append(overviewUS, us(t.overview))
			searchMS = append(searchMS, ms(t.search))
			drillMS = append(drillMS, ms(t.drill))
		}
		chunkRate = append(chunkRate, float64(spans)/time.Since(t0).Seconds())
		chunkCPU = append(chunkCPU, us(cpuNow()-cpu0)/float64(spans))
		chunkP50 = append(chunkP50, median(ms1))
	}
	x.logReps("chunk spans/s", chunkRate)
	x.logReps("chunk cpu us/span", chunkCPU)
	x.logReps("chunk session p50 ms", chunkP50)
	x.logReps("resident B/span", residentB)

	if x.tr == nil {
		reps := fmt.Sprintf("%d chunks of %d quiet sessions", chunks, x.sz.chunkSessions)
		x.rep.set("spans_per_s", maxOf(chunkRate), "best of "+reps+": result spans returned / wall")
		x.rep.set("cpu_us_per_span", minOf(chunkCPU), "best of "+reps+": process CPU (getrusage) / result spans returned")
		x.rep.set("bytes_per_span", median(residentB), fmt.Sprintf("median of %d preloads: HeapAlloc after two GCs minus the pre-ingest figure / %d spans", len(residentB), st.preSpans))
		x.rep.set("latency_ms_p50", minOf(chunkP50), "best of "+reps+": p50 session latency of the chunk")
		return nil
	}

	// Mixed phase: the same sessions while the feeder streams.
	runtime.GC()
	done := make(chan feedStats, 1) // the feeder's one result
	go func() { done <- streamOpenLoop(st.srv, st.stream, x.sz.streamRate, x.track(1)) }()
	var mixedMS []float64
	var fs feedStats
	for streaming := true; streaming; {
		t, err := st.ask(x.rep, asked, true, x.track(0), log)
		if err != nil {
			<-done
			return err
		}
		asked++
		mixedMS = append(mixedMS, ms(t.total()))
		select {
		case fs = <-done:
			streaming = false
		default:
		}
	}
	x.rep.attempted += len(fs.freshMS)
	if fs.err != nil {
		return fmt.Errorf("mixed phase feeder: %w", fs.err)
	}
	checkIngest(x.rep, st.srv, st.preSpans+fs.spans)
	x.logReps("mixed session ms", mixedMS)

	if len(sessMS) > 0 && len(tracedMS) > 0 {
		x.rep.set("trace_overhead_pct", (median(tracedMS)/median(sessMS)-1)*100,
			fmt.Sprintf("median of %d traced quiet sessions vs %d untraced, alternating", len(tracedMS), len(sessMS)))
	}
	x.selfRows(tracedSpans, "query")
	n := fmt.Sprintf("%d quiet sessions", len(sessMS))
	x.rep.set("server.session_ms_p50", median(sessMS), "p50 of "+n)
	tv, tp := tail(sessMS)
	x.rep.set("server.session_ms_tail", tv, fmt.Sprintf("p%d of %s", tp, n))
	x.rep.set("server.overview_us_p50", median(overviewUS), "p50 of "+n)
	x.rep.set("server.drill_ms_p50", median(drillMS), fmt.Sprintf("p50 of %s, %d traces each", n, x.sz.drillRoots))
	x.rep.set("server.search_step_ms_p50", median(searchMS), "p50 of "+n+", three queries each")
	x.rep.set("server.search_ms_p50", median(log.searchMS), fmt.Sprintf("p50 of %d search queries, both phases", len(log.searchMS)))
	tv, tp = tail(log.searchMS)
	x.rep.set("server.search_ms_tail", tv, fmt.Sprintf("p%d of %d search queries", tp, len(log.searchMS)))
	x.rep.set("server.trace_hot_us_p50", median(log.traceHotUS), fmt.Sprintf("p50 of %d Trace calls on roots in the newest tenth", len(log.traceHotUS)))
	x.rep.set("server.trace_cold_us_p50", median(log.traceColdUS), fmt.Sprintf("p50 of %d Trace calls on roots anywhere", len(log.traceColdUS)))
	tv, tp = tail(log.traceUS)
	x.rep.set("server.trace_us_tail", tv, fmt.Sprintf("p%d of %d Trace calls", tp, len(log.traceUS)))
	x.rep.set("server.breakdown_us_p50", median(log.breakdownUS), fmt.Sprintf("p50 of %d TraceBreakdown calls (assemble + analyze)", len(log.breakdownUS)))
	x.rep.set("server.trace_foreign_fraction", float64(log.foreign)/float64(log.traces), fmt.Sprintf("of %d drilled traces, those that also hold another request's spans", log.traces))
	x.rep.set("server.mixed_session_ms_p50", median(mixedMS), fmt.Sprintf("p50 of %d sessions while %d spans stream at %.0f spans/s", len(mixedMS), fs.spans, x.sz.streamRate))
	if median(mixedMS) < median(sessMS) {
		x.rep.problem("separation: mixed-phase sessions (p50 %.1f ms) are faster than quiet ones (%.1f ms): the stream is not reaching the store", median(mixedMS), median(sessMS))
	}
	x.rep.set("server.mixed_session_ms_mean", sum(mixedMS)/float64(len(mixedMS)), "mean of the same sessions")
	tv, tp = tail(mixedMS)
	x.rep.set("server.mixed_session_ms_tail", tv, fmt.Sprintf("p%d of %d mixed-phase sessions", tp, len(mixedMS)))
	x.rep.set("server.fresh_ms_p50", median(fs.freshMS), fmt.Sprintf("p50 of %d streamed batches, due time to Drain returned", len(fs.freshMS)))
	tv, tp = tail(fs.freshMS)
	x.rep.set("server.fresh_ms_tail", tv, fmt.Sprintf("p%d of %d streamed batches", tp, len(fs.freshMS)))
	x.rep.set("server.gen_late_ms_max", maxOf(fs.lateMS), "worst generator lateness, due time to offered")
	x.rep.set("query.resident_bytes_per_span", median(residentB), "as the end-to-end bytes_per_span")

	var roots []trace.SpanID
	for _, p := range st.plan.picks {
		roots = append(roots, p.roots...)
	}
	critpathReplay(st.srv, roots, x.rep, x.track(0))
	return nil
}
