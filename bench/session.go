package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// The troubleshooting session is the operator workflow every query number
// in the benchmark is built from: overview → find → waterfall.
//
//	overview  ServiceSummaryFast + ServiceMap + EndpointStats, whole range
//	search    QuerySpans (service + server side, limit 100), SlowestSpans
//	          (top 20) and SpanList (limit 100) over one search window
//	drill     Trace + TraceBreakdown on drillRoots root spans, half from
//	          the newest tenth of the range and half from anywhere
//
// Every pick comes from a fixed seed, so session i asks the same questions
// on every server that holds the same corpus, and its digest must match.

// planSeed fixes the picks; it is not the workload seed, which only shapes
// the simulated traffic.
const planSeed = 7

// settleVirt is how far behind the end of a recording a span must start
// for all of its trace to have been flushed by the last tick.
const settleVirt = 300 * time.Millisecond

// rootRef is one completed end-to-end request seen while recording: the
// load generator's client-side span.
type rootRef struct {
	id    trace.SpanID
	start time.Time
}

type sessionPick struct {
	window time.Time
	roots  []trace.SpanID
	hot    []bool
}

type sessionPlan struct {
	from, to time.Time // query range: settled, whole seconds
	window   time.Duration
	picks    []sessionPick
	// modal is how many spans of its own request every drilled trace must
	// hold (all roots are /productpage requests through the same call
	// tree). Zero until the first session fixes it.
	modal int
}

// newPlan picks n sessions over a corpus whose load ran for loadVirt.
func newPlan(roots []rootRef, loadVirt time.Duration, n int, sz sizes) (*sessionPlan, error) {
	p := &sessionPlan{from: sim.Epoch, window: sz.searchWindow}
	p.to = sim.Epoch.Add((loadVirt - settleVirt).Truncate(time.Second))
	if sz.searchWindow > p.to.Sub(p.from) {
		p.window = p.to.Sub(p.from)
	}
	hotFrom := p.to.Add(-p.to.Sub(p.from) / 10)
	var all, hot []trace.SpanID
	for _, r := range roots {
		if r.start.Before(p.to) {
			all = append(all, r.id)
			if !r.start.Before(hotFrom) {
				hot = append(hot, r.id)
			}
		}
	}
	if len(all) == 0 || len(hot) == 0 {
		return nil, fmt.Errorf("session plan: %d settled roots, %d in the newest tenth", len(all), len(hot))
	}
	rng := rand.New(rand.NewSource(planSeed))
	slots := int((p.to.Sub(p.from)-p.window)/flushTick) + 1
	for i := 0; i < n; i++ {
		pick := sessionPick{window: p.from.Add(time.Duration(rng.Intn(slots)) * flushTick)}
		for j := 0; j < sz.drillRoots; j++ {
			if j%2 == 0 {
				pick.roots = append(pick.roots, hot[rng.Intn(len(hot))])
			} else {
				pick.roots = append(pick.roots, all[rng.Intn(len(all))])
			}
			pick.hot = append(pick.hot, j%2 == 0)
		}
		p.picks = append(p.picks, pick)
	}
	return p, nil
}

// sessionDigest fingerprints what the operator saw. stable leaves out the
// service map, whose one-minute buckets also cover spans that stream in
// after the preloaded range; full includes it.
type sessionDigest struct{ stable, full uint64 }

// sessionTimes is one session's cost, step by step.
type sessionTimes struct {
	overview, search, drill time.Duration
	resultSpans             int
}

func (t sessionTimes) total() time.Duration { return t.overview + t.search + t.drill }

// sessionLog collects per-call timings across sessions for the ledger.
type sessionLog struct {
	searchMS                         []float64
	traceHotUS, traceColdUS, traceUS []float64
	breakdownUS                      []float64
	traces, foreign                  int // foreign: traces holding another request's spans
}

func countXRequestID(spans []*trace.Span, xrid string) int {
	n := 0
	for _, sp := range spans {
		if sp.XRequestID == xrid {
			n++
		}
	}
	return n
}

type digester struct{ h hash.Hash64 }

func (d digester) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d digester) spans(spans []*trace.Span) {
	for _, sp := range spans {
		d.u64(uint64(sp.ID))
	}
}

// runSession asks session i's questions of srv. A trace that does not
// hold the modal number of its request's spans, or whose breakdown is not
// exact, is an error: the benchmark measures a pipeline that answers
// correctly or not at all.
func runSession(srv *server.Server, p *sessionPlan, i int, k *track, log *sessionLog) (sessionDigest, sessionTimes, error) {
	pick := p.picks[i%len(p.picks)]
	var t sessionTimes
	d := digester{fnv.New64a()}

	t0 := time.Now()
	end := k.span("query.overview")
	summary := srv.ServiceSummaryFast(p.from, p.to)
	svcMap := srv.ServiceMap(p.from, p.to)
	stats := srv.EndpointStats(p.from, p.to)
	end()
	t.overview = time.Since(t0)
	fmt.Fprint(d.h, summary, stats)
	if len(summary) == 0 || len(svcMap.Edges) == 0 || len(stats) == 0 {
		return sessionDigest{}, t, fmt.Errorf("session %d: empty overview", i)
	}

	t0 = time.Now()
	end = k.span("query.search")
	from, to := pick.window, pick.window.Add(p.window)
	step := time.Now()
	lap := func() {
		if log != nil {
			log.searchMS = append(log.searchMS, ms(time.Since(step)))
		}
		step = time.Now()
	}
	byService := srv.QuerySpans(from, to, server.SpanFilter{Service: "reviews", TapSide: trace.TapServerProcess}, 100)
	lap()
	slowest := srv.SlowestSpans(from, to, server.SpanFilter{TapSide: trace.TapServerProcess}, 20)
	lap()
	newest := srv.SpanList(from, to, 100)
	lap()
	end()
	t.search = time.Since(t0)
	if len(byService) == 0 || len(slowest) == 0 || len(newest) == 0 {
		return sessionDigest{}, t, fmt.Errorf("session %d: empty search result in [%v,%v)", i, from.Sub(sim.Epoch), to.Sub(sim.Epoch))
	}
	t.resultSpans = len(byService) + len(slowest) + len(newest)
	d.spans(byService)
	d.spans(slowest)
	// A limited SpanList cuts each partition's list before the merge, and a
	// partition orders equal start times as its sort left them: which of
	// the spans tied at the cut survive depends on the shard count. The
	// digest covers the part of the answer that does not.
	cut := newest[len(newest)-1].StartTime
	for len(newest) > 0 && newest[len(newest)-1].StartTime.Equal(cut) {
		newest = newest[:len(newest)-1]
	}
	d.spans(newest)

	t0 = time.Now()
	end = k.span("query.drill")
	for j, id := range pick.roots {
		step = time.Now()
		tr := srv.Trace(id)
		traceDur := time.Since(step)
		if tr == nil || tr.Root == nil {
			end()
			return sessionDigest{}, t, fmt.Errorf("session %d: root span #%d does not assemble", i, id)
		}
		step = time.Now()
		bd := srv.TraceBreakdown(id)
		bdDur := time.Since(step)
		// The request's own spans all carry the X-Request-ID its ingress
		// proxy minted; anything else in the trace belongs to another
		// request (see README.md, "Known defects"). The foreign spans come
		// and go with what else the server holds, so the digest covers the
		// request's own spans, and parents and breakdown only when the
		// trace is the request's alone.
		xrid := ""
		for _, sp := range tr.Spans {
			if sp.ID == id {
				xrid = sp.XRequestID
			}
		}
		own := countXRequestID(tr.Spans, xrid)
		pure := own == len(tr.Spans)
		if p.modal == 0 {
			p.modal = own
		}
		if xrid == "" || own != p.modal {
			end()
			return sessionDigest{}, t, fmt.Errorf("session %d: trace of #%d has %d spans of its request, modal is %d", i, id, own, p.modal)
		}
		if bd == nil || !bd.Exact() {
			end()
			return sessionDigest{}, t, fmt.Errorf("session %d: breakdown of #%d is not exact", i, id)
		}
		for _, sp := range tr.Spans {
			if sp.XRequestID == xrid {
				d.u64(uint64(sp.ID))
				if pure {
					d.u64(uint64(sp.ParentID))
				}
			}
		}
		if pure {
			d.u64(uint64(bd.Total))
		}
		t.resultSpans += len(tr.Spans)
		if log != nil {
			log.traceUS = append(log.traceUS, us(traceDur))
			if pick.hot[j] {
				log.traceHotUS = append(log.traceHotUS, us(traceDur))
			} else {
				log.traceColdUS = append(log.traceColdUS, us(traceDur))
			}
			// TraceBreakdown assembles again before it analyzes; the
			// analysis alone is critpath's share.
			log.breakdownUS = append(log.breakdownUS, us(bdDur))
			log.traces++
			if !pure {
				log.foreign++
			}
		}
	}
	end()
	t.drill = time.Since(t0)

	dig := sessionDigest{stable: d.h.Sum64()}
	fmt.Fprint(d.h, svcMap.Text())
	dig.full = d.h.Sum64()
	return dig, t, nil
}
