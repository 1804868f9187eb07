package server

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// TestRollupShardDeterminism: 1-shard and 4-shard servers fed the identical
// batch stream answer ServiceSummaryFast and ServiceMap byte-identically —
// the rollup partials merge under the same contract as the raw stores.
func TestRollupShardDeterminism(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 40)
	s1 := NewSharded(reg, EncodingSmart, 0, 1)
	s4 := NewSharded(reg, EncodingSmart, 0, 4)
	defer s1.Close()
	defer s4.Close()
	ingestAll(t, s1, batches)
	ingestAll(t, s4, batches)

	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
	if f1, f4 := s1.ServiceSummaryFast(from, to), s4.ServiceSummaryFast(from, to); !reflect.DeepEqual(f1, f4) {
		t.Fatalf("ServiceSummaryFast differs across shard counts:\n1: %+v\n4: %+v", f1, f4)
	}
	m1, m4 := s1.ServiceMap(from, to), s4.ServiceMap(from, to)
	if m1.Text() != m4.Text() {
		t.Fatalf("ServiceMap text differs:\n1-shard:\n%s\n4-shard:\n%s", m1.Text(), m4.Text())
	}
	var d1, d4 strings.Builder
	if err := m1.WriteDOT(&d1); err != nil {
		t.Fatal(err)
	}
	if err := m4.WriteDOT(&d4); err != nil {
		t.Fatal(err)
	}
	if d1.String() != d4.String() {
		t.Fatalf("ServiceMap DOT differs:\n%s\nvs\n%s", d1.String(), d4.String())
	}
}

// TestServiceSummaryFastMatchesRawScan: the pre-aggregated path must equal
// the O(spans) raw scan exactly — counts, integer mean division, max, and
// name ordering — on aligned windows, at any shard count.
func TestServiceSummaryFastMatchesRawScan(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 60)
	for _, shards := range []int{1, 4} {
		s := NewSharded(reg, EncodingSmart, 0, shards)
		ingestAll(t, s, batches)
		from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
		raw := s.SummarizeServices(from, to)
		fast := s.ServiceSummaryFast(from, to)
		if !reflect.DeepEqual(raw, fast) {
			t.Fatalf("%d shards: fast summary != raw scan:\nraw:  %+v\nfast: %+v", shards, raw, fast)
		}
		// Sub-windows aligned to the fine bucket width must agree too.
		for _, win := range []struct{ off, len time.Duration }{
			{0, time.Second},
			{time.Second, 3 * time.Second},
			{0, time.Minute},
		} {
			f, tt := sim.Epoch.Add(win.off), sim.Epoch.Add(win.off+win.len)
			raw, fast := s.SummarizeServices(f, tt), s.ServiceSummaryFast(f, tt)
			if !reflect.DeepEqual(raw, fast) {
				t.Fatalf("%d shards window +%v+%v: fast != raw:\nraw:  %+v\nfast: %+v",
					shards, win.off, win.len, raw, fast)
			}
		}
		s.Close()
	}
}

// TestServiceSummaryFastAfterEviction: evicting the fine tier must not
// change coarse-aligned answers (the coarse tier covers the evicted range).
func TestServiceSummaryFastAfterEviction(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 50)
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	ingestAll(t, s, batches)
	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
	before := s.ServiceSummaryFast(from, to)
	s.EvictRollups(sim.Epoch.Add(10 * time.Minute))
	after := s.ServiceSummaryFast(from, to)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("summary changed after fine-tier eviction:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// The raw scan still agrees on coarse-aligned windows.
	if raw := s.SummarizeServices(from, to); !reflect.DeepEqual(raw, after) {
		t.Fatalf("post-eviction fast != raw:\nraw:  %+v\nfast: %+v", raw, after)
	}
}

// TestServiceMapEdgesAndDrillDown: the map carries client→server edges with
// RED + kernel flow stats, and each edge's SpanFilter reproduces exactly
// the spans the edge aggregated.
func TestServiceMapEdgesAndDrillDown(t *testing.T) {
	reg, cluster, _ := testRegistry(t)
	front, back := cluster.Pod("frontend-0"), cluster.Pod("backend-0")

	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	tuple := trace.FiveTuple{SrcIP: front.IP, DstIP: back.IP, SrcPort: 41000, DstPort: 80, Proto: trace.L4TCP}
	var spans []*trace.Span
	for i := 0; i < 5; i++ {
		status, code := "ok", int32(200)
		if i == 4 {
			status, code = "error", 500
		}
		spans = append(spans, &trace.Span{
			ID: trace.SpanID(i + 1), Source: trace.SourceEBPF, L7: trace.L7HTTP,
			TapSide: trace.TapServerProcess, Flow: tuple,
			StartTime: at(i * 10), EndTime: at(i*10 + 2),
			ProcessName: "backend", RequestType: "GET", RequestResource: "/api",
			ResponseCode: code, ResponseStatus: status,
			Resource: trace.ResourceTags{IP: back.IP},
			Net:      trace.NetMetrics{Retransmissions: 1, BytesSent: 100},
		})
	}
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	// The flow sample ships in a batch of its own, so its rollup partial need
	// not be the spans'.
	ingestAll(t, s, [][]byte{
		transport.Encode(&transport.Batch{Host: "a", Seq: 1, Spans: spans}),
		transport.Encode(&transport.Batch{Host: "a", Seq: 2, Flows: []transport.FlowSample{{
			TS: at(20), Host: "node-1", NIC: "eth0", Tuple: tuple.Canonical(),
			Delta:         trace.NetMetrics{Resets: 3},
			KernelPackets: 42, KernelBytes: 4200,
		}}}),
	})

	m := s.ServiceMap(sim.Epoch, sim.Epoch.Add(time.Hour))
	if len(m.Edges) != 1 {
		t.Fatalf("edges = %+v, want exactly one", m.Edges)
	}
	e := m.Edges[0]
	if e.Client != "frontend" || e.Server != "backend" || e.L7 != trace.L7HTTP {
		t.Fatalf("edge identity = %q → %q %v", e.Client, e.Server, e.L7)
	}
	if e.Requests != 5 || e.Errors != 1 {
		t.Fatalf("edge RED = %d req %d err, want 5/1", e.Requests, e.Errors)
	}
	if e.Retransmissions != 5 || e.BytesSent != 500 {
		t.Fatalf("edge span-net = retx %d bytes %d, want 5/500", e.Retransmissions, e.BytesSent)
	}
	if e.FlowResets != 3 || e.KernelPackets != 42 || e.KernelBytes != 4200 {
		t.Fatalf("edge kernel stats = rst %d pkts %d bytes %d, want 3/42/4200",
			e.FlowResets, e.KernelPackets, e.KernelBytes)
	}
	// Drill-down: the filter reproduces exactly the aggregated spans.
	got := s.EdgeSpans(m, e, 0)
	if len(got) != 5 {
		t.Fatalf("drill-down returned %d spans, want 5", len(got))
	}
	for _, sp := range got {
		if sp.TapSide != trace.TapServerProcess || sp.Flow.DstIP != back.IP {
			t.Fatalf("drill-down returned foreign span %v", sp)
		}
	}
	// Nodes: frontend appears as a client, backend as the server.
	if len(m.Nodes) != 2 || m.Nodes[0].Name != "backend" || m.Nodes[1].Name != "frontend" {
		t.Fatalf("nodes = %+v", m.Nodes)
	}
	if m.Nodes[0].Requests != 5 || m.Nodes[1].Requests != 0 {
		t.Fatalf("node aggregates = %+v", m.Nodes)
	}
}

// TestRollupSelfmonGauges: the deepflow_server_rollup_* series report the
// plane's sizes through the ordinary selfmon path.
func TestRollupSelfmonGauges(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	ingestAll(t, s, shardCorpus(t, reg, 10))
	var b strings.Builder
	if err := s.WriteStats(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"deepflow_server_rollup_fine_buckets",
		"deepflow_server_rollup_coarse_buckets",
		"deepflow_server_rollup_groups",
		"deepflow_server_rollup_edges",
		"deepflow_server_rollup_spans_observed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("self-stats missing %s:\n%s", want, out)
		}
	}
}
