package dstore

import (
	"fmt"
	"testing"
	"time"

	"deepflow/internal/trace"
)

// benchSpans builds n spans shaped like the Bookinfo corpus the pipeline
// benchmark records: 47-span traces whose capture points share an
// X-Request-ID and TCP sequence numbers per hop, a dozen hosts and
// processes, a handful of endpoints, mostly-empty third-party trace
// fields, near-sorted IDs and timestamps, enriched resource tags.
func benchSpans(n, from int) []*trace.Span {
	hosts := []string{"bi-load", "bi-node-1", "bi-node-2", "bi-productpage-envoy", "bi-productpage-0", "bi-details-envoy",
		"bi-details-0", "bi-reviews-envoy", "bi-reviews-0", "bi-ratings-envoy", "bi-ratings-0", "bi-gateway"}
	procs := []string{"wrk", "", "", "envoy", "productpage", "envoy", "details", "envoy", "reviews", "envoy", "ratings", "nginx"}
	paths := []string{"/productpage", "/details/0", "/reviews/0", "/ratings/0"}
	base := time.Unix(1694304000, 0).UTC()
	spans := make([]*trace.Span, n)
	for k := range spans {
		i := from + k
		tr, hop := i/47, i%47
		at := hop % len(hosts)
		msg := uint32(tr*8 + hop/6)
		start := base.Add(time.Duration(tr)*4*time.Millisecond + time.Duration(hop)*20*time.Microsecond)
		sp := &trace.Span{
			ID:         trace.SpanID(i + 1),
			SysTraceID: trace.SysTraceID(tr*10 + hop/5),
			XRequestID: fmt.Sprintf("%s-envoy-%06d", paths[hop/12][1:], tr),
			ReqTCPSeq:  msg * 2654435761, RespTCPSeq: msg*2246822519 + 7,
			PID: uint32(1000 + at), TID: uint32(1000 + at), ProcessName: procs[at],
			Socket: trace.SocketID(uint64(at)<<32 | uint64(msg%64)),
			Flow: trace.FiveTuple{SrcIP: trace.IP(0x0a000000 + uint32(at)), DstIP: trace.IP(0x0a000000 + uint32(hop/6%12)),
				SrcPort: uint16(32768 + tr%2048), DstPort: 15001, Proto: trace.L4TCP},
			L7: trace.L7Proto(1), Source: trace.Source(hop % 3), TapSide: trace.TapSide(hop % 8),
			HostName: hosts[at], StartTime: start, EndTime: start.Add(time.Duration(3000-60*hop) * time.Microsecond),
			RequestType: "GET", RequestResource: paths[hop/12], ResponseCode: 200, ResponseStatus: "ok",
			Resource: trace.ResourceTags{VPCID: 1, IP: trace.IP(0x0a000000 + uint32(at)), PodID: int32(at + 1),
				NodeID: int32(at%3 + 1), ServiceID: int32(at/2 + 1), NSID: 1, RegionID: 1, AZID: 1},
		}
		if hop%3 == 0 { // eBPF-sourced spans carry the thread and coroutine context
			sp.PseudoThreadID, sp.CoroutineID = uint64(tr*4+at), uint64(hop)
		}
		if hop%16 == 0 {
			sp.Net = trace.NetMetrics{RTT: 180 * time.Microsecond, BytesSent: uint64(400 + hop), BytesReceived: 5200}
		}
		spans[k] = sp
	}
	return spans
}

const benchBlockSpans = 4096 // DefaultConfig().SealSpans

// benchImage receives every benchmarked call's result, so none of them can
// be optimized away.
var benchImage []byte

func reportPerSpan(b *testing.B, spans int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spans), "ns/span")
}

func BenchmarkSealBlock(b *testing.B) {
	spans := benchSpans(benchBlockSpans, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchImage = marshalBlock(1, 1, spans, nil, nil, EncDelta)
	}
	reportPerSpan(b, benchBlockSpans)
}

func BenchmarkDecodeBlock(b *testing.B) {
	image := marshalBlock(1, 1, benchSpans(benchBlockSpans, 0), nil, nil, EncDelta)
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := unmarshalBlock(image); err != nil {
			b.Fatal(err)
		}
	}
	reportPerSpan(b, benchBlockSpans)
}

// benchMergeInputs seals CompactFanIn consecutive blocks, as four seals in
// a row leave them for the first compaction.
func benchMergeInputs() [][]byte {
	images := make([][]byte, DefaultConfig().CompactFanIn)
	for i := range images {
		images[i] = marshalBlock(uint64(i+1), uint64(i+1), benchSpans(benchBlockSpans, i*benchBlockSpans), nil, nil, EncDelta)
	}
	return images
}

func BenchmarkMergeBlocks(b *testing.B) {
	images := benchMergeInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchImage, _, err = mergeBlocks(images...); err != nil {
			b.Fatal(err)
		}
	}
	reportPerSpan(b, len(images)*benchBlockSpans)
}

// TestMergeAllocatesPerBlockNotPerSpan pins what "compaction materializes
// no rows" means in allocations: merging four full blocks may allocate its
// output and a little scratch, nowhere near one object per input span.
// scripts/check.sh gates the same count from BenchmarkMergeBlocks.
func TestMergeAllocatesPerBlockNotPerSpan(t *testing.T) {
	images := benchMergeInputs()
	inputSpans := float64(len(images) * benchBlockSpans)
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := mergeBlocks(images...); err != nil {
			t.Fatal(err)
		}
	})
	if perSpan := allocs / inputSpans; perSpan > 0.05 {
		t.Fatalf("mergeBlocks made %.0f allocations for %.0f input spans (%.3f per span, budget 0.05)", allocs, inputSpans, perSpan)
	}
}
