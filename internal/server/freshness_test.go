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

// TestEndpointStatsShardDeterminism requires the alerting plane's per-bucket
// signal rows to be identical at any shard count and to carry the network
// counters alongside the RED fields.
func TestEndpointStatsShardDeterminism(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 40)
	s1 := NewSharded(reg, EncodingSmart, 0, 1)
	s4 := NewSharded(reg, EncodingSmart, 0, 4)
	defer s1.Close()
	defer s4.Close()
	ingestAll(t, s1, batches)
	ingestAll(t, s4, batches)

	from, to := sim.Epoch, sim.Epoch.Add(time.Minute)
	e1 := s1.EndpointStats(from, to)
	e4 := s4.EndpointStats(from, to)
	if !reflect.DeepEqual(e1, e4) {
		t.Fatalf("endpoint stats differ across shard counts:\n1: %+v\n4: %+v", e1, e4)
	}
	if len(e1) == 0 {
		t.Fatal("no endpoint stats")
	}
	var requests uint64
	for _, st := range e1 {
		requests += st.Requests
	}
	// Rollup groups observe server-process spans only: one per corpus trace.
	if requests != 40 {
		t.Fatalf("total requests = %d, want 40", requests)
	}
	for i := 1; i < len(e1); i++ {
		if e1[i-1].Name >= e1[i].Name {
			t.Fatalf("endpoint stats not sorted: %q before %q", e1[i-1].Name, e1[i].Name)
		}
	}
}

// TestHostNetStats drives flow-only batches (no spans at all) through the
// ingest path and requires the per-host packet-plane rows to surface them —
// the signal an ARP storm or reset burst produces without a single span.
func TestHostNetStats(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()

	mkFlow := func(host string, ms int, arps, rsts uint32) transport.FlowSample {
		return transport.FlowSample{
			TS: sim.Epoch.Add(time.Duration(ms) * time.Millisecond), Host: host, NIC: "eth0",
			Tuple: trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: trace.L4TCP},
			Delta: trace.NetMetrics{ARPRequests: arps, Resets: rsts},
		}
	}
	b := &transport.Batch{Host: "agent-x", Seq: 1, Flows: []transport.FlowSample{
		mkFlow("node-1", 100, 7, 1),
		mkFlow("node-1", 900, 3, 0),
		mkFlow("node-2", 500, 0, 4),
		mkFlow("node-1", 1200, 99, 0), // next fine bucket: outside the query
	}}
	if err := s.IngestBatch(transport.Encode(b)); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	rows := s.HostNetStats(sim.Epoch, sim.Epoch.Add(time.Second))
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want node-1 and node-2", rows)
	}
	if rows[0].Host != "node-1" || rows[0].ARPRequests != 10 || rows[0].Resets != 1 {
		t.Fatalf("node-1 row = %+v", rows[0])
	}
	if rows[1].Host != "node-2" || rows[1].Resets != 4 || rows[1].ARPRequests != 0 {
		t.Fatalf("node-2 row = %+v", rows[1])
	}
}

// TestFreshnessGauges checks the ingest-to-queryable lag plumbing: the
// per-shard watermark tracks the newest row timestamp ingested, and
// UpdateFreshness turns it into lag seconds against a supplied clock.
func TestFreshnessGauges(t *testing.T) {
	reg, _, _ := testRegistry(t)
	s := NewSharded(reg, EncodingSmart, 0, 1)
	defer s.Close()

	now := sim.Epoch.Add(10 * time.Second)
	// Nothing ingested yet: lag reads zero, not ten billion seconds.
	if lags := s.FreshnessLag(now); lags[0] != 0 {
		t.Fatalf("empty-server lag = %v, want 0", lags[0])
	}

	sp := mkSpan(func(sp *trace.Span) {
		sp.StartTime = sim.Epoch.Add(7 * time.Second)
		sp.EndTime = sp.StartTime.Add(5 * time.Millisecond)
	})
	ingestSpans(t, s, sp)

	lags := s.FreshnessLag(now)
	if lags[0] != 3*time.Second {
		t.Fatalf("lag = %v, want 3s", lags[0])
	}
	s.UpdateFreshness(now)
	if got := s.mFreshLag[0].Value(); got != 3 {
		t.Fatalf("lag gauge = %v, want 3", got)
	}

	// An older row must not move the watermark backwards.
	old := mkSpan(func(sp *trace.Span) {
		sp.StartTime = sim.Epoch.Add(2 * time.Second)
		sp.EndTime = sp.StartTime.Add(5 * time.Millisecond)
	})
	ingestSpans(t, s, old)
	if lags := s.FreshnessLag(now); lags[0] != 3*time.Second {
		t.Fatalf("lag after stale row = %v, want 3s", lags[0])
	}
}

// TestMarkFiringHighlights renders a service map with one endpoint marked
// firing and checks both the text and DOT surfaces call it out.
func TestMarkFiringHighlights(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 10)
	s := NewSharded(reg, EncodingSmart, 0, 1)
	defer s.Close()
	ingestAll(t, s, batches)

	m := s.ServiceMap(sim.Epoch, sim.Epoch.Add(time.Minute))
	if len(m.Nodes) == 0 {
		t.Fatal("empty service map")
	}
	target := m.Nodes[0].Name
	m.MarkFiring([]string{target})

	if txt := m.Text(); !strings.Contains(txt, "[ALERT FIRING]") {
		t.Fatalf("text map missing firing marker:\n%s", txt)
	}
	var dot strings.Builder
	if err := m.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "ALERT FIRING") || !strings.Contains(dot.String(), "#ffd6d6") {
		t.Fatalf("DOT map missing firing highlight:\n%s", dot.String())
	}

	// Unmarked map renders no highlight.
	clean := s.ServiceMap(sim.Epoch, sim.Epoch.Add(time.Minute))
	if strings.Contains(clean.Text(), "ALERT FIRING") {
		t.Fatal("unmarked map shows firing highlight")
	}
}
