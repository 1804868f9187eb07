package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// Fig15Row is one query type's measured latency.
type Fig15Row struct {
	Query  string
	Mode   string // "sequential" | "random"
	MeanNS float64
	P90NS  float64
}

// populateQueryStore fills a server with `traces` assembled-together span
// groups of `spansPer` spans each, spread over a four-hour window, linked
// the way real workloads link them (TCP seq between hops, systrace within
// components), shipped the way agents ship: encoded batches, then a drain.
func populateQueryStore(srv *server.Server, traces, spansPer int) ([]trace.SpanID, error) {
	rng := rand.New(rand.NewSource(7))
	starts := make([]trace.SpanID, 0, traces)
	// Spread the corpus over four hours so a 15-minute window selects a
	// fraction of the data, as in a production store.
	spacing := 4 * time.Hour / time.Duration(traces)
	var id uint64
	var corpus []*trace.Span
	for t := 0; t < traces; t++ {
		base := sim.Epoch.Add(time.Duration(t) * spacing)
		var prev *trace.Span
		var startID trace.SpanID
		for s := 0; s < spansPer; s++ {
			id++
			sp := &trace.Span{
				ID:        trace.SpanID(id),
				Flow:      trace.FiveTuple{SrcIP: trace.IP(t + 1), DstIP: trace.IP(t + 1000), SrcPort: uint16(s + 1), DstPort: 80, Proto: trace.L4TCP},
				L7:        trace.L7HTTP,
				Source:    trace.SourceEBPF,
				StartTime: base.Add(time.Duration(s) * 30 * time.Microsecond),
				EndTime:   base.Add(time.Duration(spansPer-s) * 100 * time.Microsecond),
				TapSide:   trace.TapClientProcess,
			}
			if s%2 == 1 {
				sp.TapSide = trace.TapServerProcess
			}
			if prev != nil {
				if s%2 == 1 {
					// Server side of the previous hop: same message.
					sp.Flow = prev.Flow
					sp.ReqTCPSeq = prev.ReqTCPSeq
					sp.RespTCPSeq = prev.RespTCPSeq
				} else {
					// Next hop's client span: same systrace as the server.
					sp.SysTraceID = prev.SysTraceID
					sp.ReqTCPSeq = rng.Uint32()
					sp.RespTCPSeq = rng.Uint32()
				}
			} else {
				sp.ReqTCPSeq = rng.Uint32()
				sp.RespTCPSeq = rng.Uint32()
			}
			if sp.TapSide == trace.TapServerProcess {
				sp.SysTraceID = trace.SysTraceID(id)
			}
			corpus = append(corpus, sp)
			if s == 0 {
				startID = sp.ID
			}
			prev = sp
		}
		starts = append(starts, startID)
	}
	for _, b := range ingestBatches(corpus, 512) {
		if err := srv.IngestBatch(b); err != nil {
			return nil, err
		}
	}
	srv.Drain()
	return starts, nil
}

// MeasureQueryDelay measures span-list (15-minute window) and trace
// (Algorithm 1) query latencies, sequentially and randomly — the Fig. 15
// experiment. User queries are serial, as in the paper.
func MeasureQueryDelay(traces, spansPer, queries int) ([]Fig15Row, error) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	defer srv.Close()
	starts, err := populateQueryStore(srv, traces, spansPer)
	if err != nil {
		return nil, err
	}
	if queries > len(starts) {
		queries = len(starts)
	}
	rng := rand.New(rand.NewSource(17))

	stats := func(ds []time.Duration) (mean, p90 float64) {
		var h sim.Histogram
		for _, d := range ds {
			h.Record(d)
		}
		return float64(h.Mean().Nanoseconds()), float64(h.Percentile(90).Nanoseconds())
	}

	var rows []Fig15Row
	// Trace queries.
	for _, mode := range []string{"sequential", "random"} {
		var lats []time.Duration
		for i := 0; i < queries; i++ {
			idx := i
			if mode == "random" {
				idx = rng.Intn(len(starts))
			}
			t0 := time.Now()
			tr := srv.Trace(starts[idx])
			lats = append(lats, time.Since(t0))
			if tr == nil || tr.Len() == 0 {
				return nil, fmt.Errorf("fig15: empty trace for %d", starts[idx])
			}
		}
		mean, p90 := stats(lats)
		rows = append(rows, Fig15Row{Query: "trace", Mode: mode, MeanNS: mean, P90NS: p90})
	}
	// Span-list queries over a 15-minute window with a UI page limit.
	window := 15 * time.Minute
	const pageLimit = 1000
	total := 4 * time.Hour
	for _, mode := range []string{"sequential", "random"} {
		var lats []time.Duration
		for i := 0; i < queries; i++ {
			var from time.Time
			if mode == "random" && total > window {
				from = sim.Epoch.Add(time.Duration(rng.Int63n(int64(total - window))))
			} else {
				from = sim.Epoch.Add(time.Duration(i) * time.Millisecond)
			}
			t0 := time.Now()
			srv.SpanList(from, from.Add(window), pageLimit)
			lats = append(lats, time.Since(t0))
		}
		mean, p90 := stats(lats)
		rows = append(rows, Fig15Row{Query: "span-list-15min", Mode: mode, MeanNS: mean, P90NS: p90})
	}
	return rows, nil
}

// Fig15 runs the query-delay experiment and formats it.
func Fig15(traces, spansPer, queries int) (*Table, error) {
	rows, err := MeasureQueryDelay(traces, spansPer, queries)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig15",
		Title:   fmt.Sprintf("User query delay (%d traces × %d spans)", traces, spansPer),
		Columns: []string{"query", "mode", "mean (ms)", "p90 (ms)"},
		Notes: []string{
			"paper: a single trace query ≈ 1 s; a 15-minute span list ≈ 0.06 s (ClickHouse over the network)",
			"shape to compare: trace assembly (iterative search + parent rules) costs more than a span-list scan; random ≈ sequential",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Query, r.Mode, fmt.Sprintf("%.3f", r.MeanNS/1e6), fmt.Sprintf("%.3f", r.P90NS/1e6))
	}
	return t, nil
}
