package main

import (
	"fmt"
	"runtime"
	"time"
)

// capture-live: the live simulation under real agents on every host, with
// a discard sink and no server. ebpfvm, agent, protocols and the transport
// encoder do all the product work; server, dstore and rollup do none, so a
// server-side change must leave every number here where it was.

type captureResult struct {
	wall, cpu, gc time.Duration
	batches       int
	wireBytes     int
	tickP50       float64
	ticks         []float64 // wall ms per flush tick, load window only
	mallocs       uint64
	tot           agentTotals
}

// captureOnce is one rep: a fresh environment, the whole load, every tick
// flushed. With agentsOn false it is the same simulation with nothing
// attached — the substrate no product change can make faster.
func captureOnce(x *run, k *track, agentsOn bool, virt time.Duration) (captureResult, error) {
	var res captureResult
	l := buildLive(x.seed, x.sz)
	sink := &countSink{k: k}
	var perTick func(time.Time)
	if agentsOn {
		if err := l.deployAgents(sink); err != nil {
			return res, err
		}
		perTick = l.flushAgents(k)
	}
	runtime.GC()
	m0 := mallocs()
	gc0, cpu0, t0 := gcCPU(), cpuNow(), time.Now()
	var ticks []float64
	l.run(virt, k, "sim.run", perTick, &ticks)
	l.finishAgents(k)
	res.wall, res.cpu, res.gc = time.Since(t0), cpuNow()-cpu0, gcCPU()-gc0
	res.mallocs = mallocs() - m0
	res.ticks = ticks[:int(virt/flushTick)]
	res.tickP50 = median(res.ticks)
	res.batches, res.wireBytes = sink.batches, sink.bytes
	res.tot = l.totals()
	if n := l.loadErrors(); n != 0 {
		x.rep.problem("%d simulated requests failed or never completed", n)
	}
	if res.tot.perfLost != 0 || res.tot.hookErrors != 0 {
		x.rep.problem("%d perf records lost, %d hook errors", res.tot.perfLost, res.tot.hookErrors)
	}
	if agentsOn && res.tot.spans == 0 {
		return res, fmt.Errorf("agents emitted no spans")
	}
	return res, nil
}

func runCapture(x *run) error {
	warm, err := setUp(x, func() (captureResult, error) { return captureOnce(x, nil, true, x.sz.captureVirt) }, func(captureResult) {})
	if err != nil {
		return err
	}
	var rate, tracedRate, cpuUS, wireB, tickP50, allTicks []float64
	var last captureResult
	tracedSpans := 0
	n, err := x.measure(func(i int, k *track) error {
		res, err := captureOnce(x, k, true, x.sz.captureVirt)
		if err != nil {
			return err
		}
		// Fixed work: the same seed must give the same spans and the same
		// bytes on every rep.
		if res.tot.spans != warm.tot.spans || res.wireBytes != warm.wireBytes {
			x.rep.problem("rep %d emitted %d spans / %d wire bytes, warm-up %d / %d",
				i, res.tot.spans, res.wireBytes, warm.tot.spans, warm.wireBytes)
		}
		x.rep.attempted += len(res.ticks) + res.batches
		r := float64(res.tot.spans) / res.wall.Seconds()
		if k != nil {
			tracedRate = append(tracedRate, r)
			tracedSpans += res.tot.spans
			return nil
		}
		rate = append(rate, r)
		cpuUS = append(cpuUS, us(res.cpu)/float64(res.tot.spans))
		wireB = append(wireB, float64(res.wireBytes)/float64(res.tot.spans))
		tickP50 = append(tickP50, res.tickP50)
		allTicks = append(allTicks, res.ticks...)
		last = res
		return nil
	})
	if err != nil {
		return err
	}

	x.logReps("spans/s", rate)
	x.logReps("cpu us/span", cpuUS)
	x.logReps("tick p50 ms", tickP50)
	if x.tr == nil {
		reps := fmt.Sprintf("%d reps of %d spans", n, warm.tot.spans)
		x.rep.set("spans_per_s", maxOf(rate), "best of "+reps+": spans emitted / wall of the live run")
		x.rep.set("cpu_us_per_span", minOf(cpuUS), "best of "+reps+": process CPU (getrusage) / spans")
		x.rep.set("bytes_per_span", median(wireB), "wire bytes handed to the sink / spans (exact)")
		x.rep.set("latency_ms_p50", minOf(tickP50), fmt.Sprintf("best rep's p50 wall ms per 100 ms flush window (%d windows a rep)", len(allTicks)/n))
		return nil
	}

	// The traced run: ledger rows from the agents' own counters, the
	// agents-off substrate, and the agent-side layer replays.
	x.overhead(rate, tracedRate)
	x.selfRows(tracedSpans, "sim", "agent", "sink")
	spans := float64(last.tot.spans)
	x.rep.set("agent.cpu_us_per_span", us(last.tot.cpu)/spans, "sum of Agent.CPUTime / spans, last live rep")
	x.rep.set("agent.fastpath_hit_ratio", float64(last.tot.fast)/float64(last.tot.fast+last.tot.slow), "PathStats, live")
	x.rep.set("agent.inference_giveups", float64(last.tot.giveup), "PathStats, live")
	x.rep.set("ebpfvm.perf_records_per_span", float64(last.tot.perfEmit)/spans, "Perf.Emitted / spans")
	x.rep.set("ebpfvm.perf_lost", float64(last.tot.perfLost), "Perf.Lost")
	x.rep.set("transport.batch_spans_mean", spans/float64(last.batches), fmt.Sprintf("%d batches", last.batches))
	tv, tp := tail(allTicks)
	x.rep.set("capture.tick_ms_tail", tv, fmt.Sprintf("p%d of %d flush windows", tp, len(allTicks)))

	var offWall []float64
	var off captureResult
	for i := 0; i < 3; i++ {
		end := x.track(0).span("sim.agents_off")
		off, err = captureOnce(x, nil, false, x.sz.captureVirt)
		end()
		if err != nil {
			return err
		}
		offWall = append(offWall, us(off.wall))
	}
	x.rep.set("sim.substrate_us_per_span", minOf(offWall)/spans, "best of 3 agents-off runs of the same simulation / spans of the agents-on run")
	x.rep.set("agent.allocs_per_span", (float64(last.mallocs)-float64(off.mallocs))/spans, "mallocs of a live rep minus an agents-off run / spans")

	c, err := recordCorpus(x.seed, x.sz, x.sz.replayVirt, true, x.track(0))
	if err != nil {
		return err
	}
	if err := agentReplays(c, x.rep, x.track(0)); err != nil {
		return err
	}
	return nil
}
