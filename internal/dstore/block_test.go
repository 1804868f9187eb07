package dstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// testSpan builds a fully-populated span; i varies every field so column
// round-trips can't pass by accident.
func testSpan(i int) *trace.Span {
	base := time.Unix(1700000000, 0).UTC()
	sp := &trace.Span{
		ID:             trace.SpanID(1000 + i),
		SysTraceID:     trace.SysTraceID(5000 + i/3),
		PseudoThreadID: uint64(77 + i),
		XRequestID:     fmt.Sprintf("xreq-%04d", i/2),
		ReqTCPSeq:      uint32(900000 + 13*i),
		RespTCPSeq:     uint32(910000 + 13*i),
		TraceID:        fmt.Sprintf("trace-%03d", i/3),
		SpanRef:        fmt.Sprintf("span-%04d", i),
		ParentSpanRef:  fmt.Sprintf("span-%04d", i-1),
		PID:            uint32(4000 + i%5),
		TID:            uint32(4100 + i%7),
		CoroutineID:    uint64(i * 31),
		ProcessName:    []string{"frontend", "backend", "db"}[i%3],
		Socket:         trace.SocketID(333000 + i),
		Flow: trace.FiveTuple{
			SrcIP: trace.IP(0x0a000001 + uint32(i)), DstIP: trace.IP(0x0a000100 + uint32(i%4)),
			SrcPort: uint16(30000 + i), DstPort: uint16(8080 + i%3), Proto: trace.L4TCP,
		},
		L7:              trace.L7Proto(1 + i%3),
		Source:          trace.Source(i % 3),
		TapSide:         trace.TapSide(i % 4),
		HostName:        []string{"node-1", "node-2"}[i%2],
		StartTime:       base.Add(time.Duration(i) * 10 * time.Millisecond),
		EndTime:         base.Add(time.Duration(i)*10*time.Millisecond + time.Duration(1+i%9)*time.Millisecond),
		RequestType:     []string{"GET", "POST", "QUERY"}[i%3],
		RequestResource: fmt.Sprintf("/api/v1/items/%d", i%6),
		ResponseCode:    int32(200 + 100*(i%3)),
		ResponseStatus:  []string{"ok", "error"}[i%2],
		Resource: trace.ResourceTags{
			VPCID: 7, IP: trace.IP(0x0a000001 + uint32(i)), PodID: int32(20 + i%4),
			NodeID: int32(2 + i%2), ServiceID: int32(11 + i%3), NSID: 3,
			RegionID: 1, AZID: int32(1 + i%2),
		},
		Net: trace.NetMetrics{
			Retransmissions: uint32(i % 3), Resets: uint32(i % 2), ZeroWindows: uint32(i % 5),
			RTT: time.Duration(100+i) * time.Microsecond, BytesSent: uint64(1500 * i),
			BytesReceived: uint64(900 * i), ARPRequests: uint32(i % 4),
		},
		ParentID: trace.SpanID(999 + i),
	}
	if i%3 != 0 {
		sp.Custom = map[string]string{"team": "payments", "zone": fmt.Sprintf("z%d", i%2)}
	}
	return sp
}

func testRows(n int) ([]*trace.Span, []transport.FlowSample, []profiling.Sample) {
	var spans []*trace.Span
	for i := 0; i < n; i++ {
		spans = append(spans, testSpan(i))
	}
	base := time.Unix(1700000000, 0).UTC()
	var flows []transport.FlowSample
	for i := 0; i < n/2; i++ {
		flows = append(flows, transport.FlowSample{
			TS: base.Add(time.Duration(i) * time.Second), Host: "node-1", NIC: "eth0",
			Tuple:         trace.FiveTuple{SrcIP: trace.IP(10 + uint32(i)), DstIP: 20, SrcPort: 1000, DstPort: 80, Proto: trace.L4UDP},
			Delta:         trace.NetMetrics{BytesSent: uint64(100 * i), RTT: time.Millisecond},
			KernelPackets: uint64(40 + i), KernelBytes: uint64(4000 + i),
		})
	}
	var profiles []profiling.Sample
	for i := 0; i < n/3; i++ {
		profiles = append(profiles, profiling.Sample{
			Host: "node-2", PID: uint32(4000 + i), ProcName: "backend",
			Stack: []string{"main", "handle", fmt.Sprintf("leaf%d", i)}, Count: uint64(3 + i),
			FirstNS: int64(1e9 + i), LastNS: int64(2e9 + i),
			Resource: trace.ResourceTags{VPCID: 7, IP: trace.IP(30 + uint32(i))},
		})
	}
	return spans, flows, profiles
}

// spanWire canonicalizes a span for comparison via its wire encoding.
func spanWire(sp *trace.Span) []byte { return trace.AppendSpan(nil, sp) }

func TestBlockRoundTripAllEncodings(t *testing.T) {
	spans, flows, profiles := testRows(30)
	for _, enc := range []BlockEncoding{EncDelta, EncDirect, EncLowCard} {
		t.Run(enc.String(), func(t *testing.T) {
			data := EncodeBlock(spans, flows, profiles, enc)
			gotSpans, gotFlows, gotProfiles, err := DecodeBlock(data)
			if err != nil {
				t.Fatalf("DecodeBlock: %v", err)
			}
			if len(gotSpans) != len(spans) || len(gotFlows) != len(flows) || len(gotProfiles) != len(profiles) {
				t.Fatalf("row counts %d/%d/%d, want %d/%d/%d",
					len(gotSpans), len(gotFlows), len(gotProfiles), len(spans), len(flows), len(profiles))
			}
			for i := range spans {
				if !bytes.Equal(spanWire(gotSpans[i]), spanWire(spans[i])) {
					t.Fatalf("span %d did not round-trip under %s", i, enc)
				}
			}
			for i := range flows {
				want := transport.AppendFlowSample(nil, &flows[i])
				got := transport.AppendFlowSample(nil, &gotFlows[i])
				if !bytes.Equal(got, want) {
					t.Fatalf("flow %d did not round-trip under %s", i, enc)
				}
			}
			for i := range profiles {
				want := transport.AppendProfileSample(nil, &profiles[i])
				got := transport.AppendProfileSample(nil, &gotProfiles[i])
				if !bytes.Equal(got, want) {
					t.Fatalf("profile %d did not round-trip under %s", i, enc)
				}
			}
		})
	}
}

func TestBlockMetaRange(t *testing.T) {
	spans, flows, profiles := testRows(12)
	data := marshalBlock(3, 9, spans, flows, profiles, EncDelta)
	meta, _, _, _, err := unmarshalBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.walFirst != 3 || meta.walLast != 9 {
		t.Fatalf("wal range %d-%d, want 3-9", meta.walFirst, meta.walLast)
	}
	if meta.nSpans != len(spans) || meta.nFlows != len(flows) || meta.nProfiles != len(profiles) {
		t.Fatalf("meta counts %d/%d/%d", meta.nSpans, meta.nFlows, meta.nProfiles)
	}
	wantMin := spans[0].StartTime.UnixNano()
	wantMax := spans[len(spans)-1].StartTime.UnixNano()
	if meta.minNS != wantMin || meta.maxNS != wantMax {
		t.Fatalf("time range [%d,%d], want [%d,%d]", meta.minNS, meta.maxNS, wantMin, wantMax)
	}
	if head, _, err := openBlock(data); err != nil || head != meta {
		t.Fatalf("openBlock = %+v, %v; unmarshalBlock read %+v", head, err, meta)
	}
}

func TestBlockDeltaBeatsDirectOnSequentialData(t *testing.T) {
	// Timestamps and IDs in a block arrive nearly sorted, which is the
	// whole bet behind delta+varint columns.
	spans, flows, profiles := testRows(200)
	delta := len(EncodeBlock(spans, flows, profiles, EncDelta))
	direct := len(EncodeBlock(spans, flows, profiles, EncDirect))
	lowcard := len(EncodeBlock(spans, flows, profiles, EncLowCard))
	if delta >= direct {
		t.Fatalf("delta block (%d B) not smaller than direct (%d B)", delta, direct)
	}
	if delta >= lowcard {
		t.Fatalf("delta block (%d B) not smaller than low-cardinality (%d B)", delta, lowcard)
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	spans, flows, profiles := testRows(10)
	data := EncodeBlock(spans, flows, profiles, EncDelta)
	for _, mutate := range []func([]byte) []byte{
		func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }, // body flip
		func(d []byte) []byte { return d[:len(d)-3] },           // truncated
		func(d []byte) []byte { d[0] = 'X'; return d },          // bad magic
		func(d []byte) []byte { d[3] = 99; return d },           // bad version
	} {
		cp := append([]byte(nil), data...)
		if _, _, _, err := DecodeBlock(mutate(cp)); err == nil {
			t.Fatal("corrupt block decoded without error")
		}
	}
}

func TestBlockNameRoundTrip(t *testing.T) {
	first, last, ok := parseBlockName(blockName(7, 42))
	if !ok || first != 7 || last != 42 {
		t.Fatalf("parseBlockName(blockName(7,42)) = %d, %d, %v", first, last, ok)
	}
	if _, _, ok := parseBlockName("wal-00000007.log"); ok {
		t.Fatal("parsed a wal name as a block name")
	}
}

func TestBlockEmpty(t *testing.T) {
	data := EncodeBlock(nil, nil, nil, EncDelta)
	spans, flows, profiles, err := DecodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans)+len(flows)+len(profiles) != 0 {
		t.Fatal("empty block decoded rows")
	}
}
