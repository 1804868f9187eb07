package server

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// sameTrace fails unless two assemblies hold the same spans with the same
// parents in the same display order.
func sameTrace(t *testing.T, what string, a, b *trace.Trace) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d spans at 1 shard, %d at 2", what, a.Len(), b.Len())
	}
	for i := range a.Spans {
		if x, y := a.Spans[i], b.Spans[i]; x.ID != y.ID || x.ParentID != y.ParentID {
			t.Fatalf("%s: position %d is #%d (parent #%d) at 1 shard, #%d (parent #%d) at 2",
				what, i, x.ID, x.ParentID, y.ID, y.ParentID)
		}
	}
}

// TestAssemblerInvariants checks structural properties of Algorithm 1 on
// randomized span populations: the start span is always in its trace, no
// parent cycles survive, every parent is inside the trace, and a masked
// assembly never finds more spans than the full one. Every assembly runs
// on a 1-shard and a 2-shard server over the same corpus and must agree
// span for span.
func TestAssemblerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 20; round++ {
		reg := NewResourceRegistry(nil, nil)
		srv, srv2 := New(reg, EncodingSmart), NewSharded(reg, EncodingSmart, 0, 2)
		n := 20 + rng.Intn(60)
		idsUsed := make([]trace.SpanID, 0, n)
		var corpus []*trace.Span
		for i := 0; i < n; i++ {
			start := sim.Epoch.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			sp := &trace.Span{
				ID:        trace.SpanID(round*1000 + i + 1),
				Source:    trace.SourceEBPF,
				TapSide:   []trace.TapSide{trace.TapClientProcess, trace.TapServerProcess, trace.TapClientNIC, trace.TapGateway}[rng.Intn(4)],
				StartTime: start,
				EndTime:   start.Add(time.Duration(rng.Intn(50)) * time.Millisecond),
				// Deliberately collide association keys to stress the
				// search and the parent rules.
				SysTraceID: trace.SysTraceID(rng.Intn(8)),
				ReqTCPSeq:  uint32(rng.Intn(6)),
				RespTCPSeq: uint32(rng.Intn(6)),
				XRequestID: []string{"", "xr-1", "xr-2"}[rng.Intn(3)],
				TraceID:    []string{"", "t-1"}[rng.Intn(2)],
				Flow: trace.FiveTuple{
					SrcIP: trace.IP(rng.Intn(3)), DstIP: trace.IP(rng.Intn(3) + 5),
					SrcPort: uint16(rng.Intn(2) + 1000), DstPort: 80, Proto: trace.L4TCP,
				},
			}
			corpus = append(corpus, sp)
			idsUsed = append(idsUsed, sp.ID)
		}
		ingestSpans(t, srv, corpus...)
		ingestSpans(t, srv2, corpus...)
		srv.Close()
		srv2.Close()

		start := idsUsed[rng.Intn(len(idsUsed))]
		tr := srv.Trace(start)
		if tr == nil {
			t.Fatalf("round %d: nil trace", round)
		}
		sameTrace(t, fmt.Sprintf("round %d: full trace", round), tr, srv2.Trace(start))
		inTrace := map[trace.SpanID]*trace.Span{}
		foundStart := false
		for _, sp := range tr.Spans {
			inTrace[sp.ID] = sp
			if sp.ID == start {
				foundStart = true
			}
		}
		if !foundStart {
			t.Fatalf("round %d: start span missing from its own trace", round)
		}
		// Parents resolve inside the trace and no cycles exist.
		for _, sp := range tr.Spans {
			if sp.ParentID == 0 {
				continue
			}
			if _, ok := inTrace[sp.ParentID]; !ok {
				t.Fatalf("round %d: parent %d outside trace", round, sp.ParentID)
			}
			seen := map[trace.SpanID]bool{}
			cur := sp
			for cur.ParentID != 0 {
				if seen[cur.ID] {
					t.Fatalf("round %d: parent cycle at %d", round, cur.ID)
				}
				seen[cur.ID] = true
				cur = inTrace[cur.ParentID]
				if cur == nil {
					break
				}
			}
		}
		// Masked search is a subset of the full search.
		for _, mask := range []AssocMask{AssocTCPSeq, AssocSysTrace, AssocXRequestID, 0} {
			sub := srv.Assemble(start, DefaultIterations, mask)
			if sub.Len() > tr.Len() {
				t.Fatalf("round %d: mask %b found %d spans > full %d", round, mask, sub.Len(), tr.Len())
			}
			sameTrace(t, fmt.Sprintf("round %d: mask %b", round, mask), sub, srv2.Assemble(start, DefaultIterations, mask))
		}
		// Zero mask finds exactly the start span.
		if solo := srv.Assemble(start, DefaultIterations, 0); solo.Len() != 1 {
			t.Fatalf("round %d: zero-mask trace has %d spans", round, solo.Len())
		}
	}
}

func TestAssembleSortedByTime(t *testing.T) {
	reg := NewResourceRegistry(nil, nil)
	srv := New(reg, EncodingSmart)
	for i := 0; i < 10; i++ {
		start := sim.Epoch.Add(time.Duration(10-i) * time.Millisecond)
		ingestSpans(t, srv, &trace.Span{
			ID:         trace.SpanID(i + 1),
			SysTraceID: 42,
			StartTime:  start,
			EndTime:    start.Add(time.Millisecond),
			TapSide:    trace.TapServerProcess,
		})
	}
	tr := srv.Trace(1)
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].StartTime.Before(tr.Spans[i-1].StartTime) {
			t.Fatal("spans not time-sorted")
		}
	}
}

// TestPseudoThreadStaysOnItsHost: coroutine IDs are PID<<32|n, so two hosts
// running the same service with the same PID sequence mint the same
// pseudo-thread IDs. A trace started on one host must hold none of the other
// host's spans, and each client span must nest under its own host's server
// span, at any shard count.
func TestPseudoThreadStaysOnItsHost(t *testing.T) {
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	const pseudo = uint64(4242)<<32 | 1
	hosts := []string{"node-a", "node-b"}
	var corpus []*trace.Span
	for i, host := range hosts {
		mk := func(id trace.SpanID, side trace.TapSide, sys trace.SysTraceID, s, e int) *trace.Span {
			return &trace.Span{ID: id, Source: trace.SourceEBPF, TapSide: side, HostName: host,
				PID: 4242, ProcessName: "reviews", CoroutineID: pseudo, PseudoThreadID: pseudo,
				SysTraceID: sys, ReqTCPSeq: uint32(100*i + int(id)),
				Flow: trace.FiveTuple{SrcIP: trace.IP(10 + i), DstIP: trace.IP(20 + int(id)),
					SrcPort: uint16(30000 + int(id)), DstPort: 9080, Proto: trace.L4TCP},
				StartTime: at(s), EndTime: at(e)}
		}
		base := trace.SpanID(10 * (i + 1))
		corpus = append(corpus,
			mk(base+1, trace.TapServerProcess, trace.SysTraceID(base+1), 0, 20),
			mk(base+2, trace.TapClientProcess, trace.SysTraceID(base+2), 5, 15))
	}
	reg := NewResourceRegistry(nil, nil)
	for _, shards := range []int{1, 2} {
		s := NewSharded(reg, EncodingSmart, 0, shards)
		ingestSpans(t, s, corpus...)
		s.Close()
		for i, host := range hosts {
			server, client := trace.SpanID(10*(i+1)+1), trace.SpanID(10*(i+1)+2)
			tr := s.Trace(server)
			foreign := 0
			for _, sp := range tr.Spans {
				if sp.HostName != host {
					foreign++
				}
				if sp.ID == client && sp.ParentID != server {
					t.Errorf("%d shards, %s: client #%d nests under #%d, want #%d",
						shards, host, client, sp.ParentID, server)
				}
			}
			if foreign != 0 || tr.Len() != 2 {
				t.Errorf("%d shards, %s: trace holds %d spans, %d from another host; want 2, 0",
					shards, host, tr.Len(), foreign)
			}
		}
	}
}
