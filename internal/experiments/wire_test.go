package experiments

import (
	"fmt"
	"testing"
	"time"

	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// TestWireSizeArithmetic pins wireSizes to what the direct and
// low-cardinality encoders wrote while they existed in internal/transport:
// the expected sizes below are the byte lengths of their output for these
// exact batches, recorded at the last commit that had them. The second
// corpus has 300 distinct pod names, so dictionary indexes cross the
// one-byte varint boundary, and an empty name.
func TestWireSizeArithmetic(t *testing.T) {
	start := time.Unix(0, 1000).UTC()
	one := &transport.Batch{Host: "h", Seq: 1, Spans: []*trace.Span{{
		ID: 7, ReqTCPSeq: 9, L7: trace.L7HTTP, Source: trace.SourceEBPF,
		StartTime: start, EndTime: start.Add(5),
		Resource: trace.ResourceTags{VPCID: 1, IP: 2, PodID: 3},
	}}}
	fixed := func(trace.ResourceTags) [6]string { return [6]string{"pod-3", "n", "s", "ns", "r", "az"} }
	if smart, direct, lowCard := wireSizes(one, fixed); smart != 55 || direct != 73 || lowCard != 80 {
		t.Fatalf("one-span batch: smart=%d direct=%d low-cardinality=%d, the encoders wrote 55/73/80", smart, direct, lowCard)
	}

	many := &transport.Batch{Host: "h", Seq: 1}
	for i := 0; i < 1000; i++ {
		st := time.Unix(0, int64(i)*1000).UTC()
		many.Spans = append(many.Spans, &trace.Span{
			ID: trace.SpanID(i + 1), StartTime: st, EndTime: st.Add(time.Microsecond),
			Resource: trace.ResourceTags{PodID: int32(i % 300), NodeID: int32(i % 16), ServiceID: int32(i % 20), AZID: int32(i % 3)},
		})
	}
	resolve := func(rt trace.ResourceTags) [6]string {
		return [6]string{
			fmt.Sprintf("pod-%d-some-longish-name", rt.PodID), fmt.Sprintf("node-%d.cluster.internal", rt.NodeID),
			fmt.Sprintf("service-%d", rt.ServiceID), "production", "", fmt.Sprintf("az-%d", rt.AZID),
		}
	}
	smart, direct, lowCard := wireSizes(many, resolve)
	if smart != 50616 || direct != 128048 || lowCard != 65587 {
		t.Fatalf("1000-span batch: smart=%d direct=%d low-cardinality=%d, the encoders wrote 50616/128048/65587", smart, direct, lowCard)
	}
	// The ordering the paper's smart-encoding claim rests on: ints only is
	// strictly smallest; a dictionary beats raw strings once names repeat.
	if !(smart < lowCard && lowCard < direct) {
		t.Fatalf("wire sizes: smart=%d low-cardinality=%d direct=%d, want smart < low-cardinality < direct", smart, lowCard, direct)
	}
}
