package main

import (
	"fmt"
	"runtime"
	"time"

	"deepflow/internal/core"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// journey-live: the whole journey of a span — live simulation → hooks →
// ebpfvm → Sessionizer → encode → queue → decode/enrich → WAL → SpanStore →
// rollup → sessions at the end — through core.NewDeployment with two
// shards, a data directory and the 100 ms flush. Every layer takes its
// natural share; contention between the agents and the shard workers on
// two cores, and the per-tick Drain barrier, show here and nowhere else.

type journeyResult struct {
	wall, cpu, gc, sessionCPU time.Duration
	spans                     int
	disk                      int64
	agentCPU                  time.Duration
	fast, slow                int
	ticks, sessionMS          []float64
	digests                   []sessionDigest
}

// journeyState carries what the first rep learns to the later ones: the
// session plan (span IDs repeat, because the seed does) and its answers.
type journeyState struct {
	plan *sessionPlan
	ref  []sessionDigest
	warm journeyResult
}

func journeyOnce(x *run, st *journeyState, k *track) (journeyResult, error) {
	var res journeyResult
	dir, err := x.dir("journey")
	if err != nil {
		return res, err
	}
	l := buildLive(x.seed, x.sz)
	opts := core.DefaultOptions()
	opts.Agent = agentConfig()
	opts.Shards = 2
	opts.DataDir = dir
	opts.FlushInterval = flushTick
	d := core.NewDeployment(l.env, l.clusters, nil, opts)
	if err := d.DeployAll(); err != nil {
		return res, err
	}
	runtime.GC()
	gc0, cpu0, t0 := gcCPU(), cpuNow(), time.Now()
	l.run(x.sz.journeyVirt, k, "journey.tick", nil, &res.ticks)
	end := k.span("core.flush_all")
	d.FlushAll()
	end()

	if st.plan == nil {
		// First rep: find the completed /productpage requests to drill into.
		var roots []rootRef
		f := server.SpanFilter{ProcessName: "load", TapSide: trace.TapClientProcess, Status: "ok"}
		for _, sp := range d.Server.QuerySpans(sim.Epoch, sim.Epoch.Add(time.Hour), f, 0) {
			roots = append(roots, rootRef{id: sp.ID, start: sp.StartTime})
		}
		if st.plan, err = newPlan(roots, x.sz.journeyVirt, x.sz.journeyAsks, x.sz); err != nil {
			d.Stop()
			return res, err
		}
	}
	cpu1 := cpuNow()
	for i := 0; i < x.sz.journeyAsks; i++ {
		dg, t, err := runSession(d.Server, st.plan, i, k, nil)
		x.rep.attempted++
		if err != nil {
			d.Stop()
			return res, err
		}
		res.sessionMS = append(res.sessionMS, ms(t.total()))
		res.digests = append(res.digests, dg)
	}
	res.wall, res.cpu, res.gc = time.Since(t0), cpuNow()-cpu0, gcCPU()-gc0
	res.sessionCPU = cpuNow() - cpu1
	x.rep.attempted += len(res.ticks)

	// Every span the agents emitted is ingested and stored; nothing lost
	// on the way.
	res.spans = d.Server.SpanCount()
	if e, i := d.SpansEmitted(), d.Server.SpansIngested(); e != i || i != res.spans || e == 0 {
		x.rep.problem("agents emitted %d spans, server ingested %d, stores hold %d", e, i, res.spans)
	}
	checkIngest(x.rep, d.Server, res.spans)
	if n := l.loadErrors(); n != 0 {
		x.rep.problem("%d simulated requests failed or never completed", n)
	}
	for _, h := range l.hosts {
		if ag := d.Agent(h.Name); ag != nil && (ag.Progs.Perf.Lost() != 0 || ag.HookErrors != 0) {
			x.rep.problem("agent on %s: %d perf records lost, %d hook errors", h.Name, ag.Progs.Perf.Lost(), ag.HookErrors)
		}
	}
	res.agentCPU = d.AgentCPUTime()
	res.fast, res.slow, _ = d.AgentPathStats()
	end = k.span("core.stop")
	d.Stop()
	end()
	ds := d.Server.DurableStats()
	res.disk = ds.WALBytes + ds.SealedBytes

	// The same seed gives the same spans, so every rep must give the
	// first rep's answers.
	if st.ref == nil {
		st.ref = res.digests
	}
	for i, dg := range res.digests {
		if dg != st.ref[i] {
			x.rep.problem("session %d digest %016x, first rep %016x", i, dg.full, st.ref[i].full)
		}
	}
	return res, nil
}

func runJourney(x *run) error {
	st, err := setUp(x, func() (*journeyState, error) {
		st := &journeyState{}
		var err error
		st.warm, err = journeyOnce(x, st, nil) // the discarded warm-up rep
		return st, err
	}, func(*journeyState) {})
	if err != nil {
		return err
	}

	var rate, tracedRate, cpuUS, diskB, sessMS, ticks []float64
	var last journeyResult
	tracedSpans := 0
	n, err := x.measure(func(i int, k *track) error {
		res, err := journeyOnce(x, st, k)
		if err != nil {
			return err
		}
		if res.spans != st.warm.spans {
			x.rep.problem("rep %d stored %d spans, warm-up %d", i, res.spans, st.warm.spans)
		}
		r := float64(res.spans) / res.wall.Seconds()
		if k != nil {
			tracedRate = append(tracedRate, r)
			tracedSpans += res.spans
			return nil
		}
		rate = append(rate, r)
		cpuUS = append(cpuUS, us(res.cpu)/float64(res.spans))
		diskB = append(diskB, float64(res.disk)/float64(res.spans))
		sessMS = append(sessMS, median(res.sessionMS))
		ticks = append(ticks, res.ticks[:int(x.sz.journeyVirt/flushTick)]...)
		last = res
		return nil
	})
	if err != nil {
		return err
	}

	x.logReps("spans/s", rate)
	x.logReps("cpu us/span", cpuUS)
	x.logReps("session p50 ms", sessMS)
	if x.tr == nil {
		reps := fmt.Sprintf("%d reps of %d spans", n, st.warm.spans)
		x.rep.set("spans_per_s", maxOf(rate), "best of "+reps+": spans stored / wall of the live run incl. the final sessions")
		x.rep.set("cpu_us_per_span", minOf(cpuUS), "best of "+reps+": process CPU (getrusage) over the same run")
		x.rep.set("bytes_per_span", median(diskB), "median of reps: WAL + sealed bytes after Stop / spans")
		x.rep.set("latency_ms_p50", minOf(sessMS), fmt.Sprintf("best rep's p50 session latency, %d sessions at the end of each rep (the first pays for the index the ingest left unsorted)", x.sz.journeyAsks))
		return nil
	}

	x.overhead(rate, tracedRate)
	x.selfRows(tracedSpans, "journey", "query", "core")
	x.rep.set("journey.tick_ms_p50", median(ticks), fmt.Sprintf("p50 of %d flush windows: wall ms from syscalls to queryable", len(ticks)))
	tv, tp := tail(ticks)
	x.rep.set("journey.tick_ms_tail", tv, fmt.Sprintf("p%d of %d flush windows", tp, len(ticks)))
	x.rep.set("agent.fastpath_hit_ratio", float64(last.fast)/float64(last.fast+last.slow), "PathStats, live")

	if err := journeyLedger(x, last, median(cpuUS)); err != nil {
		return err
	}
	return nil
}

// coverageLo and coverageHi bound ledger.coverage: the journey's CPU per
// span, rebuilt from parts each measured on its own, must land this close
// to the journey measured whole. See README.md for the runs behind them.
const (
	coverageLo = 0.80
	coverageHi = 1.10
)

// journeyLedger rebuilds the journey's CPU per span from parts measured
// each on its own and checks the sum against the journey measured whole:
//
//	capture   the live simulation under real agents with a discard sink
//	          (itself explained by four rows that are not summed again:
//	          the simulator with agents off, Agent.CPUTime, the agents'
//	          flushes, and the collector's work on their garbage)
//	ingest    durable ingest of the batches the agents ship
//	session   the sessions at the end
//	shared    what the collector does in the journey beyond what it does
//	          in capture and ingest alone — marking the server's heap on
//	          every cycle the agents' garbage triggers. No part can show
//	          this; it is the cost of the layers sharing one process.
func journeyLedger(x *run, live journeyResult, journeyCPU float64) error {
	k := x.track(0)
	spans := float64(live.spans)

	var substrate, capture, captureGC, agentGC []float64
	for i := 0; i < 3; i++ {
		off, err := captureOnce(x, k, false, x.sz.journeyVirt)
		if err != nil {
			return err
		}
		on, err := captureOnce(x, k, true, x.sz.journeyVirt)
		if err != nil {
			return err
		}
		substrate = append(substrate, us(off.cpu)/spans)
		capture = append(capture, us(on.cpu)/spans)
		captureGC = append(captureGC, us(on.gc)/spans)
		agentGC = append(agentGC, us(on.gc-off.gc)/spans)
	}

	// Record what the agents ship over the same load (harness-owned
	// agents, so their flushes can be timed from outside), then replay it
	// into a durable two-shard server.
	flushTr := newTracer()
	c, err := recordCorpus(x.seed, x.sz, x.sz.journeyVirt, false, flushTr.track(0))
	if err != nil {
		return err
	}
	if c.spans != live.spans {
		x.rep.problem("ledger: recording gave %d spans, the journey %d", c.spans, live.spans)
	}
	var ingest, ingestGC []float64
	for i := 0; i < 3; i++ {
		dir, err := x.dir("ledger")
		if err != nil {
			return err
		}
		srv, _, err := newDurable(c, dir, k)
		if err != nil {
			return err
		}
		runtime.GC()
		gc0, cpu0 := gcCPU(), cpuNow()
		err = feed(srv, c.batches, k)
		ingest = append(ingest, us(cpuNow()-cpu0)/spans)
		ingestGC = append(ingestGC, us(gcCPU()-gc0)/spans)
		srv.Kill()
		if err != nil {
			return err
		}
	}

	const sub = "explains capture.cpu_us_per_span; not summed again"
	x.rep.set("sim.substrate_us_per_span", median(substrate), sub)
	x.rep.set("agent.cpu_us_per_span", us(live.agentCPU)/spans, sub)
	x.rep.set("agent.flush_us_per_span", us(flushTr.selfTimes()["agent"])/spans, sub)
	x.rep.set("agent.gc_us_per_span", median(agentGC), sub)

	shared := max(0, us(live.gc)/spans-median(captureGC)-median(ingestGC))
	parts := []struct {
		name string
		v    float64
	}{
		{"capture.cpu_us_per_span", median(capture)},
		{"server.ingest_cpu_us_per_span", median(ingest)},
		{"query.session_cpu_us_per_span", us(live.sessionCPU) / spans},
		{"runtime.gc_shared_us_per_span", shared},
	}
	total := 0.0
	for _, p := range parts {
		x.rep.set(p.name, p.v, "ledger part: process CPU us per journey span")
		total += p.v
	}
	cov := total / journeyCPU
	x.rep.set("ledger.coverage", cov, fmt.Sprintf("sum of the four parts (%.2f us) / journey CPU per span (%.2f us); must be within [%.2f, %.2f]", total, journeyCPU, coverageLo, coverageHi))
	if cov < coverageLo || cov > coverageHi {
		x.rep.problem("ledger.coverage %.3f outside [%.2f, %.2f]: the parts no longer add up to the journey", cov, coverageLo, coverageHi)
	}
	return nil
}
