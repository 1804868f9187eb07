package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// shardCorpus builds a deterministic batch stream: nTraces three-span traces
// (client → server → downstream client, linked by TCP seq and syscall trace
// ID), plus flow and profile rows, split into small batches so spans of one
// trace land on different ingest shards.
func shardCorpus(t *testing.T, reg *ResourceRegistry, nTraces int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var spans []*trace.Span
	var flows []transport.FlowSample
	var profiles []profiling.Sample
	nextID := trace.SpanID(0)
	for i := 0; i < nTraces; i++ {
		at := func(ms int) time.Time {
			return sim.Epoch.Add(time.Duration(i)*10*time.Millisecond + time.Duration(ms)*time.Millisecond)
		}
		tuple := trace.FiveTuple{
			SrcIP: trace.IP(rng.Uint32()), DstIP: trace.IP(rng.Uint32()),
			SrcPort: uint16(10000 + i), DstPort: 80, Proto: trace.L4TCP,
		}
		req, resp := rng.Uint32(), rng.Uint32()
		sys := trace.SysTraceID(rng.Uint64())
		mk := func(side trace.TapSide, s, e int, st trace.SysTraceID) *trace.Span {
			nextID++
			return &trace.Span{
				ID: nextID, Source: trace.SourceEBPF, L7: trace.L7HTTP,
				TapSide: side, Flow: tuple, ReqTCPSeq: req, RespTCPSeq: resp,
				SysTraceID: st, StartTime: at(s), EndTime: at(e),
				ProcessName: fmt.Sprintf("svc-%d", i%5), RequestType: "GET",
				ResponseCode: 200, ResponseStatus: "ok",
			}
		}
		spans = append(spans,
			mk(trace.TapClientProcess, 0, 9, 0),
			mk(trace.TapServerProcess, 1, 8, sys))
		down := mk(trace.TapClientProcess, 2, 7, sys)
		down.Flow = trace.FiveTuple{SrcIP: tuple.DstIP, DstIP: trace.IP(rng.Uint32()),
			SrcPort: uint16(20000 + i), DstPort: 81, Proto: trace.L4TCP}
		down.ReqTCPSeq, down.RespTCPSeq = rng.Uint32(), rng.Uint32()
		spans = append(spans, down)

		flows = append(flows, transport.FlowSample{
			TS: at(5), Host: fmt.Sprintf("node-%d", i%3), NIC: "eth0", Tuple: tuple,
			Delta:         trace.NetMetrics{Retransmissions: uint32(i % 2), BytesSent: uint64(100 * i)},
			KernelPackets: uint64(i), KernelBytes: uint64(64 * i),
		})
		profiles = append(profiles, profiling.Sample{
			Host: fmt.Sprintf("node-%d", i%3), PID: uint32(100 + i%4),
			ProcName: fmt.Sprintf("svc-%d", i%5),
			Stack:    []string{"main", fmt.Sprintf("handler%d", i%3), "encode"},
			Count:    uint64(1 + i%7), FirstNS: int64(i) * 1e6, LastNS: int64(i)*1e6 + 5e5,
		})
	}

	// Small batches: each trace's spans straddle batch (and thus shard)
	// boundaries, which is the case the cross-partition merge must handle.
	var batches [][]byte
	seq := uint64(0)
	for off := 0; off < len(spans); off += 7 {
		end := off + 7
		if end > len(spans) {
			end = len(spans)
		}
		seq++
		b := &transport.Batch{Host: "agent-x", Seq: seq, Spans: spans[off:end]}
		if int(seq)-1 < len(flows) {
			b.Flows = flows[seq-1 : seq]
		}
		if int(seq)-1 < len(profiles) {
			b.Profiles = profiles[seq-1 : seq]
		}
		batches = append(batches, transport.Encode(b))
	}
	return batches
}

func ingestAll(t testing.TB, s *Server, batches [][]byte) {
	t.Helper()
	for _, b := range batches {
		if err := s.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
}

// ingestRows is the tests' way in, which is the product's only one: rows are
// wire-encoded, pushed through IngestBatch and drained, so they are
// queryable on return. Spans go three to a batch (flows and profiles ride
// in the first) so a sharded server spreads even a small corpus over its
// partitions. The server stores decoded copies, never the caller's
// pointers — an assertion on the stored span re-reads it through SpanByID.
func ingestRows(t testing.TB, s *Server, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample) {
	t.Helper()
	const perBatch = 3
	var batches [][]byte
	for off := 0; off == 0 || off < len(spans); off += perBatch {
		b := &transport.Batch{Host: "test-agent", Seq: uint64(len(batches) + 1),
			Spans: spans[off:min(off+perBatch, len(spans))]}
		if off == 0 {
			b.Flows, b.Profiles = flows, profiles
		}
		batches = append(batches, transport.Encode(b))
	}
	ingestAll(t, s, batches)
}

// ingestSpans is ingestRows for span-only corpora.
func ingestSpans(t testing.TB, s *Server, spans ...*trace.Span) {
	t.Helper()
	ingestRows(t, s, spans, nil, nil)
}

// TestShardMergeDeterminism feeds the identical batch stream into a 1-shard
// and a 4-shard server and requires every query surface to return identical
// results — the sharding must be invisible to readers.
func TestShardMergeDeterminism(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 40)
	s1 := NewSharded(reg, EncodingSmart, 0, 1)
	s4 := NewSharded(reg, EncodingSmart, 0, 4)
	defer s1.Close()
	defer s4.Close()
	ingestAll(t, s1, batches)
	ingestAll(t, s4, batches)

	if s1.SpansIngested() != s4.SpansIngested() || s1.SpanCount() != s4.SpanCount() {
		t.Fatalf("span counts differ: 1-shard %d/%d, 4-shard %d/%d",
			s1.SpansIngested(), s1.SpanCount(), s4.SpansIngested(), s4.SpanCount())
	}
	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)

	l1, l4 := s1.SpanList(from, to, 0), s4.SpanList(from, to, 0)
	if len(l1) != len(l4) {
		t.Fatalf("span list lengths differ: %d vs %d", len(l1), len(l4))
	}
	for i := range l1 {
		if l1[i].ID != l4[i].ID || !l1[i].StartTime.Equal(l4[i].StartTime) {
			t.Fatalf("span list diverges at %d: #%d@%v vs #%d@%v",
				i, l1[i].ID, l1[i].StartTime, l4[i].ID, l4[i].StartTime)
		}
	}

	// Limited lists must agree too (the per-shard limit + merge must not
	// change which spans win).
	for _, limit := range []int{1, 5, 17} {
		a, b := s1.SpanList(from, to, limit), s4.SpanList(from, to, limit)
		if len(a) != len(b) {
			t.Fatalf("limit %d: lengths %d vs %d", limit, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("limit %d diverges at %d: #%d vs #%d", limit, i, a[i].ID, b[i].ID)
			}
		}
	}

	// Every assembled trace renders byte-identically.
	for _, sp := range l1 {
		tr1, tr4 := s1.Trace(sp.ID), s4.Trace(sp.ID)
		f1, f4 := s1.FormatTrace(tr1), s4.FormatTrace(tr4)
		if f1 != f4 {
			t.Fatalf("trace from span #%d differs:\n1-shard:\n%s\n4-shard:\n%s", sp.ID, f1, f4)
		}
	}

	if sum1, sum4 := s1.SummarizeServices(from, to), s4.SummarizeServices(from, to); !reflect.DeepEqual(sum1, sum4) {
		t.Fatalf("service summaries differ:\n%+v\n%+v", sum1, sum4)
	}

	p1 := s1.ProfileSamples(from, to, ProfileFilter{})
	p4 := s4.ProfileSamples(from, to, ProfileFilter{})
	if !reflect.DeepEqual(p1, p4) {
		t.Fatalf("profile samples differ:\n%+v\n%+v", p1, p4)
	}
	if tf1, tf4 := s1.TopFunctions(from, to, ProfileFilter{}, 10), s4.TopFunctions(from, to, ProfileFilter{}, 10); !reflect.DeepEqual(tf1, tf4) {
		t.Fatalf("top functions differ:\n%+v\n%+v", tf1, tf4)
	}
	var w1, w4 strings.Builder
	if err := s1.WriteFolded(&w1, from, to, ProfileFilter{}); err != nil {
		t.Fatal(err)
	}
	if err := s4.WriteFolded(&w4, from, to, ProfileFilter{}); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w4.String() {
		t.Fatalf("folded stacks differ:\n%q\n%q", w1.String(), w4.String())
	}
}

// TestIngestBatchBasic covers the batch path end to end: rows land, counts
// add up, flows become flow-log spans, and profiles are queryable.
// TestSpanListTiesAtTheCut: when several spans share the StartTime the
// limit cuts through, which of them make the list is decided by the
// (StartTime, ID) total order alone — not by the shard count, the partition
// a span landed in, or its arrival order.
func TestSpanListTiesAtTheCut(t *testing.T) {
	reg, _, _ := testRegistry(t)
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	// Arrival order scrambles IDs; eight spans tie at 5 ms, two are newer,
	// three older. Any limit from 3 to 9 cuts inside the tie.
	var corpus []*trace.Span
	for _, c := range []struct {
		id trace.SpanID
		ms int
	}{{7, 5}, {2, 9}, {11, 1}, {5, 5}, {13, 1}, {1, 5}, {9, 5}, {4, 5}, {12, 1}, {3, 9}, {8, 5}, {6, 5}, {10, 5}} {
		corpus = append(corpus, &trace.Span{ID: c.id, Source: trace.SourceEBPF,
			StartTime: at(c.ms), EndTime: at(c.ms + 1)})
	}
	want := append([]*trace.Span(nil), corpus...)
	sort.Slice(want, func(i, j int) bool {
		if !want[i].StartTime.Equal(want[j].StartTime) {
			return want[i].StartTime.After(want[j].StartTime)
		}
		return want[i].ID > want[j].ID
	})
	for _, shards := range []int{1, 2} {
		s := NewSharded(reg, EncodingSmart, 0, shards)
		ingestSpans(t, s, corpus...)
		s.Close()
		for limit := 1; limit <= len(corpus); limit++ {
			got := s.SpanList(sim.Epoch, at(100), limit)
			if len(got) != limit {
				t.Fatalf("%d shards, limit %d: %d spans", shards, limit, len(got))
			}
			for i, sp := range got {
				if sp.ID != want[i].ID {
					t.Fatalf("%d shards, limit %d: position %d is #%d, the total order says #%d",
						shards, limit, i, sp.ID, want[i].ID)
				}
			}
		}
	}
}

func TestIngestBatchBasic(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	batches := shardCorpus(t, reg, 6)
	ingestAll(t, s, batches)
	if got := s.SpansIngested(); got != 18 {
		t.Fatalf("SpansIngested = %d, want 18", got)
	}
	if s.FlowsIngested() == 0 || s.ProfilesIngested() == 0 {
		t.Fatalf("flows=%d profiles=%d, want both > 0", s.FlowsIngested(), s.ProfilesIngested())
	}
	if sp := s.SpanByID(1); sp == nil || sp.TapSide != trace.TapClientProcess {
		t.Fatalf("SpanByID(1) = %+v", sp)
	}
}

// TestIngestBatchCorrupt: a malformed batch is counted and dropped without
// wedging Drain or poisoning later batches.
func TestIngestBatchCorrupt(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	if err := s.IngestBatch([]byte{0xDF, 0x10, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	batches := shardCorpus(t, reg, 2)
	ingestAll(t, s, batches)
	if got := s.SpansIngested(); got != 6 {
		t.Fatalf("SpansIngested after corrupt batch = %d, want 6", got)
	}
}
