package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
)

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max + 1)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_./:|=\\"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randSpan(rng *rand.Rand, i int) *trace.Span {
	start := time.Unix(0, rng.Int63n(1e15)).UTC()
	sp := &trace.Span{
		ID:              trace.SpanID(rng.Uint64()),
		SysTraceID:      trace.SysTraceID(rng.Uint64()),
		PseudoThreadID:  rng.Uint64(),
		XRequestID:      randString(rng, 24),
		ReqTCPSeq:       rng.Uint32(),
		RespTCPSeq:      rng.Uint32(),
		TraceID:         randString(rng, 32),
		SpanRef:         randString(rng, 16),
		ParentSpanRef:   randString(rng, 16),
		PID:             rng.Uint32(),
		TID:             rng.Uint32(),
		CoroutineID:     rng.Uint64(),
		ProcessName:     randString(rng, 12),
		Socket:          trace.SocketID(rng.Uint64()),
		Flow:            trace.FiveTuple{SrcIP: trace.IP(rng.Uint32()), DstIP: trace.IP(rng.Uint32()), SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: trace.L4TCP},
		L7:              trace.L7Proto(rng.Intn(10)),
		Source:          trace.Source(1 + rng.Intn(4)),
		TapSide:         trace.TapSide(rng.Intn(9)),
		HostName:        randString(rng, 20),
		StartTime:       start,
		EndTime:         start.Add(time.Duration(rng.Int63n(1e9))),
		RequestType:     randString(rng, 8),
		RequestResource: randString(rng, 64),
		ResponseCode:    int32(rng.Intn(600) - 100),
		ResponseStatus:  []string{"ok", "error", "timeout", ""}[rng.Intn(4)],
		Resource: trace.ResourceTags{
			VPCID: int32(rng.Intn(1 << 20)), IP: trace.IP(rng.Uint32()),
			PodID: int32(rng.Intn(1 << 16)), NodeID: int32(rng.Intn(1 << 10)),
			ServiceID: int32(rng.Intn(1 << 12)), NSID: int32(rng.Intn(64)),
			RegionID: int32(rng.Intn(8)), AZID: int32(rng.Intn(16)),
		},
		Net: trace.NetMetrics{
			Retransmissions: rng.Uint32(), Resets: rng.Uint32(), ZeroWindows: rng.Uint32(),
			RTT: time.Duration(rng.Int63n(1e9)), BytesSent: rng.Uint64(), BytesReceived: rng.Uint64(),
			ARPRequests: rng.Uint32(),
		},
		ParentID: trace.SpanID(rng.Uint64()),
	}
	if rng.Intn(3) == 0 { // sometimes carry custom labels, sometimes huge ones
		sp.Custom = map[string]string{}
		for j := 0; j < rng.Intn(5); j++ {
			sp.Custom[fmt.Sprintf("k%d", j)] = randString(rng, 16)
		}
		if i%17 == 0 { // max-size tag values
			sp.Custom["max"] = strings.Repeat("x", 4096)
		}
		if len(sp.Custom) == 0 {
			sp.Custom = nil
		}
	}
	return sp
}

func randBatch(rng *rand.Rand, i int) *Batch {
	b := &Batch{Host: randString(rng, 12), Seq: rng.Uint64()}
	for j := 0; j < rng.Intn(8); j++ {
		b.Spans = append(b.Spans, randSpan(rng, i*10+j))
	}
	for j := 0; j < rng.Intn(4); j++ {
		b.Flows = append(b.Flows, FlowSample{
			TS:   time.Unix(0, rng.Int63n(1e15)).UTC(),
			Host: randString(rng, 10), NIC: randString(rng, 6),
			Tuple:         trace.FiveTuple{SrcIP: trace.IP(rng.Uint32()), DstIP: trace.IP(rng.Uint32()), SrcPort: uint16(rng.Uint32()), DstPort: 80, Proto: trace.L4UDP},
			Delta:         trace.NetMetrics{Retransmissions: rng.Uint32(), RTT: time.Duration(rng.Int63n(1e8)), BytesSent: rng.Uint64()},
			KernelPackets: rng.Uint64(), KernelBytes: rng.Uint64(),
		})
	}
	for j := 0; j < rng.Intn(4); j++ {
		var stack []string
		for k := 0; k < rng.Intn(40); k++ {
			stack = append(stack, randString(rng, 24))
		}
		b.Profiles = append(b.Profiles, profiling.Sample{
			Host: randString(rng, 10), PID: rng.Uint32(), ProcName: randString(rng, 12),
			Stack: stack, Count: rng.Uint64(), FirstNS: rng.Int63(), LastNS: rng.Int63(),
			Resource: trace.ResourceTags{VPCID: int32(rng.Intn(100)), IP: trace.IP(rng.Uint32())},
		})
	}
	return b
}

// batchEqual compares batches field by field, treating time.Time via Equal
// (wall-clock identity, not representation identity).
func batchEqual(t *testing.T, a, b *Batch) bool {
	t.Helper()
	if a.Host != b.Host || a.Seq != b.Seq ||
		len(a.Spans) != len(b.Spans) || len(a.Flows) != len(b.Flows) || len(a.Profiles) != len(b.Profiles) {
		return false
	}
	for i := range a.Spans {
		x, y := *a.Spans[i], *b.Spans[i]
		if !x.StartTime.Equal(y.StartTime) || !x.EndTime.Equal(y.EndTime) {
			return false
		}
		x.StartTime, y.StartTime = time.Time{}, time.Time{}
		x.EndTime, y.EndTime = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	for i := range a.Flows {
		x, y := a.Flows[i], b.Flows[i]
		if !x.TS.Equal(y.TS) {
			return false
		}
		x.TS, y.TS = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	for i := range a.Profiles {
		if !reflect.DeepEqual(a.Profiles[i], b.Profiles[i]) {
			return false
		}
	}
	return true
}

// TestCodecRoundTripProperty: for randomized batches — including empty
// ones and max-size tags — Decode(Encode(b)) equals b.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var b *Batch
		if i == 0 {
			b = &Batch{Host: "empty-host", Seq: 1} // explicit empty batch
		} else {
			b = randBatch(rng, i)
		}
		got, err := Decode(Encode(b))
		if err != nil {
			t.Fatalf("batch %d: decode: %v", i, err)
		}
		if !batchEqual(t, b, got) {
			t.Fatalf("batch %d: round trip mismatch\nin:  %+v\nout: %+v", i, b, got)
		}
	}
}

// One span {ID 7, ReqTCPSeq 9, HTTP, eBPF, start 1000ns +5ns, VPC 1, IP 2,
// pod 3} from host "h", seq 1, as the three encoders that once existed
// wrote it (names pod-3/n/s/ns/r/az). The smart bytes pin the live format;
// the other two were valid input to Decode until the baselines left the
// product and must now be refused.
const (
	goldenSmart   = "\xdf\x10\x01h\x01\x01\x00\x00\a\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\xd0\x0f\n\x00\x00\x00\x00\x02\x02\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	legacyDirect  = "\xdf\x11\x01h\x01\x01\x00\x00\a\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\xd0\x0f\n\x00\x00\x00\x00\x02\x02\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05pod-3\x01n\x01s\x02ns\x01r\x02az"
	legacyLowCard = "\xdf\x12\x01h\x01\x01\x00\x00\x06\x05pod-3\x01n\x01s\x02ns\x01r\x02az\a\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\xd0\x0f\n\x00\x00\x00\x00\x02\x02\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x02\x03\x04\x05"
)

// TestGoldenSmartBatch: the wire bytes are frozen — today's encoder writes
// exactly what the pre-deletion encoder wrote.
func TestGoldenSmartBatch(t *testing.T) {
	start := time.Unix(0, 1000).UTC()
	b := &Batch{Host: "h", Seq: 1, Spans: []*trace.Span{{
		ID: 7, ReqTCPSeq: 9, L7: trace.L7HTTP, Source: trace.SourceEBPF,
		StartTime: start, EndTime: start.Add(5),
		Resource: trace.ResourceTags{VPCID: 1, IP: 2, PodID: 3},
	}}}
	if got := string(Encode(b)); got != goldenSmart {
		t.Fatalf("smart wire bytes changed:\n got %q\nwant %q", got, goldenSmart)
	}
	got, err := Decode([]byte(goldenSmart))
	if err != nil || !batchEqual(t, b, got) {
		t.Fatalf("golden batch decode = %+v, %v", got, err)
	}
}

// TestDecodeRefusesLegacyEncodings: a header whose encoding nibble is 1
// (direct) or 2 (low-cardinality) is an error — including well-formed
// batches the old decoder accepted — and the refusal comes before any row
// count is read, so a hostile header cannot size an allocation.
func TestDecodeRefusesLegacyEncodings(t *testing.T) {
	for name, data := range map[string]string{"direct": legacyDirect, "low-cardinality": legacyLowCard} {
		if b, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s batch decoded: %+v", name, b)
		}
	}
	// Counts of 2^20 each, and enough bytes behind them that the
	// impossible-row-counts check alone would not refuse the batch.
	data := []byte{wireMagic, 0, 1, 'h', 1}
	for i := 0; i < 3; i++ {
		data = binary.AppendUvarint(data, 1<<20)
	}
	data = append(data, make([]byte, 4<<20)...)
	for nibble := byte(1); nibble < 16; nibble++ {
		data[1] = wireVersion<<4 | nibble
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("encoding nibble %d decoded", nibble)
		}
		// A []*trace.Span sized by the claimed count alone would be 8 MB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("encoding nibble %d: refusal allocated %d bytes (sized by the header's counts?)", nibble, grew)
		}
	}
}

// TestDecodeRejectsCorrupt: truncations and garbage fail loudly instead of
// yielding a half-decoded batch.
func TestDecodeRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randBatch(rng, 1)
	b.Spans = append(b.Spans, randSpan(rng, 2))
	data := Encode(b)
	if _, err := Decode(nil); err == nil {
		t.Error("nil input decoded")
	}
	if _, err := Decode([]byte{0x00, 0x10}); err == nil {
		t.Error("bad magic decoded")
	}
	for _, cut := range []int{1, 2, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Error("trailing garbage decoded")
	}
}
