package dstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// rows is one block's worth of decoded content.
type rows struct {
	spans    []*trace.Span
	flows    []transport.FlowSample
	profiles []profiling.Sample
}

func (a rows) concat(b rows) rows {
	return rows{
		spans:    append(a.spans[:len(a.spans):len(a.spans)], b.spans...),
		flows:    append(a.flows[:len(a.flows):len(a.flows)], b.flows...),
		profiles: append(a.profiles[:len(a.profiles):len(a.profiles)], b.profiles...),
	}
}

func (a rows) marshal(walFirst, walLast uint64, enc BlockEncoding) []byte {
	return marshalBlock(walFirst, walLast, a.spans, a.flows, a.profiles, enc)
}

// same compares decoded rows with reflect.DeepEqual, element by element so
// that a nil and an empty slice of rows count as the same nothing.
func (a rows) same(b rows) bool {
	if len(a.spans) != len(b.spans) || len(a.flows) != len(b.flows) || len(a.profiles) != len(b.profiles) {
		return false
	}
	for i := range a.spans {
		if !reflect.DeepEqual(a.spans[i], b.spans[i]) {
			return false
		}
	}
	for i := range a.flows {
		if !reflect.DeepEqual(a.flows[i], b.flows[i]) {
			return false
		}
	}
	for i := range a.profiles {
		if !reflect.DeepEqual(a.profiles[i], b.profiles[i]) {
			return false
		}
	}
	return true
}

// randomRows draws a block's rows: strings come from small pools shared by
// every block of a trial (so dictionaries overlap across merge inputs),
// integers cover their fields' whole range including the extremes whose
// deltas wrap around int64, and spans come with and without custom labels
// and net metrics.
func randomRows(rng *rand.Rand, nSpans, nFlows, nProfiles int) rows {
	pick := func(pool ...string) string { return pool[rng.Intn(len(pool))] }
	extreme := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return math.MaxInt64 - int64(rng.Intn(3))
		case 1:
			return math.MinInt64 + int64(rng.Intn(3))
		case 2:
			return int64(rng.Intn(5)) - 2
		default:
			return rng.Int63n(1<<40) - 1<<39
		}
	}
	tags := func() trace.ResourceTags {
		return trace.ResourceTags{
			VPCID: int32(rng.Intn(4)), IP: trace.IP(rng.Uint32()), PodID: int32(rng.Intn(50)) - 1,
			NodeID: int32(rng.Intn(8)), ServiceID: int32(rng.Intn(12)), NSID: int32(rng.Intn(3)),
			RegionID: math.MinInt32, AZID: math.MaxInt32,
		}
	}
	net := func() trace.NetMetrics {
		if rng.Intn(2) == 0 {
			return trace.NetMetrics{}
		}
		return trace.NetMetrics{
			Retransmissions: rng.Uint32(), Resets: uint32(rng.Intn(3)), ZeroWindows: math.MaxUint32,
			RTT: time.Duration(extreme()), BytesSent: rng.Uint64(), BytesReceived: uint64(rng.Intn(1 << 20)),
			ARPRequests: uint32(rng.Intn(2)),
		}
	}
	var r rows
	for i := 0; i < nSpans; i++ {
		start := time.Unix(0, extreme()).UTC()
		sp := &trace.Span{
			ID: trace.SpanID(rng.Uint64()), SysTraceID: trace.SysTraceID(extreme()), PseudoThreadID: rng.Uint64(),
			XRequestID: pick("", "", "req-a", "req-b", fmt.Sprintf("req-%d", rng.Intn(1000))),
			ReqTCPSeq:  rng.Uint32(), RespTCPSeq: math.MaxUint32,
			TraceID: pick("", "t1", "t2"), SpanRef: fmt.Sprintf("s%d", rng.Intn(40)), ParentSpanRef: pick("", "s1"),
			PID: rng.Uint32(), TID: uint32(rng.Intn(9)), CoroutineID: uint64(extreme()),
			ProcessName: pick("frontend", "backend", "db", "élan", ""), Socket: trace.SocketID(rng.Uint64()),
			Flow: trace.FiveTuple{SrcIP: trace.IP(rng.Uint32()), DstIP: math.MaxUint32,
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: math.MaxUint16, Proto: trace.L4Proto(rng.Intn(256))},
			L7: trace.L7Proto(rng.Intn(256)), Source: trace.Source(rng.Intn(4)), TapSide: trace.TapSide(rng.Intn(256)),
			HostName:  pick("node-1", "node-2", "node-3"),
			StartTime: start, EndTime: start.Add(time.Duration(extreme())),
			RequestType: pick("GET", "POST", ""), RequestResource: pick("/a", "/b", "/c", "/d", fmt.Sprintf("/item/%d", rng.Intn(30))),
			ResponseCode: int32(extreme()), ResponseStatus: pick("ok", "error", "timeout"),
			Resource: tags(), Net: net(), ParentID: trace.SpanID(extreme()),
		}
		switch rng.Intn(3) {
		case 1:
			sp.Custom = map[string]string{"team": pick("pay", "web")}
		case 2:
			sp.Custom = map[string]string{"b": "", "a": pick("x", "y"), "": "empty key", "zone": "z"}
		}
		r.spans = append(r.spans, sp)
	}
	for i := 0; i < nFlows; i++ {
		r.flows = append(r.flows, transport.FlowSample{
			TS: time.Unix(0, extreme()).UTC(), Host: pick("node-1", "node-2"), NIC: pick("eth0", ""),
			Tuple:         trace.FiveTuple{SrcIP: trace.IP(rng.Uint32()), DstIP: 20, SrcPort: 1000, DstPort: uint16(rng.Intn(1 << 16)), Proto: trace.L4UDP},
			Delta:         net(),
			KernelPackets: rng.Uint64(), KernelBytes: uint64(rng.Intn(4000)),
		})
	}
	for i := 0; i < nProfiles; i++ {
		ps := profiling.Sample{
			Host: pick("node-1", "node-2"), PID: rng.Uint32(), ProcName: pick("backend", ""),
			Count: rng.Uint64(), FirstNS: extreme(), LastNS: extreme(), Resource: tags(),
		}
		for d := rng.Intn(4); d > 0; d-- {
			ps.Stack = append(ps.Stack, pick("main", "handle", "leaf", ""))
		}
		r.profiles = append(r.profiles, ps)
	}
	return r
}

// randomShape draws row counts, favouring the degenerate blocks a merge
// has to get right: no spans, flows only, profiles only, nothing at all.
func randomShape(rng *rand.Rand) (nSpans, nFlows, nProfiles int) {
	switch rng.Intn(8) {
	case 0:
		return 0, 0, 0
	case 1:
		return 0, 1 + rng.Intn(5), 0
	case 2:
		return 0, 0, 1 + rng.Intn(5)
	case 3:
		return 1, 0, 0
	default:
		return 1 + rng.Intn(60), rng.Intn(6), rng.Intn(4)
	}
}

// TestMergeBlocksEqualsMarshalOfConcatenation is the differential test the
// column-native merge rests on: for random row sets under every encoding,
// merging the sealed images gives byte for byte the image that sealing the
// concatenated rows gives, and it decodes back to those rows.
func TestMergeBlocksEqualsMarshalOfConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		enc := BlockEncoding(trial % 3)
		nInputs := 1 + rng.Intn(8)
		var all rows
		images := make([][]byte, nInputs)
		for i := range images {
			nSpans, nFlows, nProfiles := randomShape(rng)
			part := randomRows(rng, nSpans, nFlows, nProfiles)
			images[i] = part.marshal(uint64(10*i+1), uint64(10*i+9), enc)
			all = all.concat(part)
		}
		want := all.marshal(1, uint64(10*(nInputs-1)+9), enc)
		got, meta, err := mergeBlocks(images...)
		if err != nil {
			t.Fatalf("trial %d (%s, %d inputs): %v", trial, enc, nInputs, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%s, %d inputs): merged image (%d B) differs from the sealed concatenation (%d B) at byte %d",
				trial, enc, nInputs, len(got), len(want), firstDiff(got, want))
		}
		if head, _, err := openBlock(got); err != nil || head != meta {
			t.Fatalf("trial %d: mergeBlocks returned header %+v, image carries %+v (%v)", trial, meta, head, err)
		}
		_, spans, flows, profiles, err := unmarshalBlock(got)
		if err != nil {
			t.Fatalf("trial %d: merged image does not decode: %v", trial, err)
		}
		if !all.same(rows{spans, flows, profiles}) {
			t.Fatalf("trial %d (%s): merged image decodes to different rows", trial, enc)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestMergeBlocksRejectsMixedEncodingsAndNothing(t *testing.T) {
	part := randomRows(rand.New(rand.NewSource(1)), 5, 1, 1)
	if _, _, err := mergeBlocks(part.marshal(1, 1, EncDelta), part.marshal(2, 2, EncLowCard)); err == nil {
		t.Fatal("merged a delta block with a low-cardinality block")
	}
	if _, _, err := mergeBlocks(); err == nil {
		t.Fatal("merged no blocks")
	}
}
