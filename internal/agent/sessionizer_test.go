package agent

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"deepflow/internal/protocols"
	"deepflow/internal/trace"
)

// equivEvent builds one syscall-tap message event on the given socket.
func equivEvent(sock trace.SocketID, dir trace.Direction, at time.Time, payload []byte) MessageEvent {
	srcPort, dstPort := uint16(40000+sock), uint16(8000)
	if dir == trace.DirIngress {
		srcPort, dstPort = dstPort, srcPort
	}
	return MessageEvent{
		Source:  trace.SourceEBPF,
		TapSide: trace.TapClientProcess,
		Host:    "pod-client",
		Socket:  sock,
		Tuple: trace.FiveTuple{
			SrcIP: trace.IP(10), DstIP: trace.IP(20),
			SrcPort: srcPort, DstPort: dstPort, Proto: trace.L4TCP,
		},
		Dir:      dir,
		Start:    at,
		End:      at.Add(time.Millisecond),
		PID:      100 + uint32(sock),
		TID:      200 + uint32(sock),
		ProcName: "client",
		Payload:  payload,
		DataLen:  len(payload),
	}
}

// equivStream is a mixed-protocol stream covering every session outcome:
// parallel and pipeline protocols, error responses, response
// continuations, orphan responses, out-of-window responses, unparsable
// flows, and a flow that only ever sees requests (flushed as timeouts).
func equivStream(base time.Time) []MessageEvent {
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	var evs []MessageEvent
	add := func(sock trace.SocketID, dir trace.Direction, ms int, payload []byte) {
		evs = append(evs, equivEvent(sock, dir, at(ms), payload))
	}

	// Socket 1: long-lived gRPC connection — parallel — with interleaved
	// streams, an error status, and an orphan response on a
	// stream that was never requested.
	add(1, trace.DirEgress, 0, protocols.EncodeGRPCRequest(1, "/cart.Cart/Add", map[string]string{"traceparent": "00-aaaabbbb-cccc-01"}, 64))
	add(1, trace.DirEgress, 2, protocols.EncodeGRPCRequest(3, "/cart.Cart/Get", nil, 0))
	add(1, trace.DirIngress, 5, protocols.EncodeGRPCResponse(3, protocols.GRPCStatusOK, 16))
	add(1, trace.DirIngress, 7, protocols.EncodeGRPCResponse(1, protocols.GRPCStatusUnavailable, 0))
	add(1, trace.DirIngress, 9, protocols.EncodeGRPCResponse(99, protocols.GRPCStatusOK, 0)) // orphan

	// Socket 2: Postgres — pipeline — with an error
	// response and a response continuation: the CommandComplete declares
	// more bytes than the first syscall carried, so the next ingress event
	// extends it instead of starting a new message.
	add(2, trace.DirEgress, 10, protocols.EncodePostgresQuery("SELECT * FROM orders"))
	add(2, trace.DirIngress, 12, protocols.EncodePostgresComplete("SELECT 3", 0))
	add(2, trace.DirEgress, 14, protocols.EncodePostgresQuery("UPDATE orders SET s = 1"))
	add(2, trace.DirIngress, 16, protocols.EncodePostgresError("40001", "serialization failure"))
	add(2, trace.DirEgress, 18, protocols.EncodePostgresQuery("SELECT big FROM blobs"))
	cc := protocols.EncodePostgresComplete("SELECT 1", 300)
	first := equivEvent(2, trace.DirIngress, at(20), cc[:80])
	first.DataLen = 80
	evs = append(evs, first)
	contn := equivEvent(2, trace.DirIngress, at(21), nil)
	contn.DataLen = len(cc) - 80
	evs = append(evs, contn)

	// Socket 3: AMQP — pipeline — publish/ack plus a channel.close error.
	add(3, trace.DirEgress, 22, protocols.EncodeAMQPPublish(1, "orders", "order.created", 128))
	add(3, trace.DirIngress, 24, protocols.EncodeAMQPAck(1))
	add(3, trace.DirEgress, 26, protocols.EncodeAMQPPublish(1, "", "order.audit", 0))
	add(3, trace.DirIngress, 28, protocols.EncodeAMQPClose(1, 312, "NO_ROUTE"))

	// Socket 4: HTTP, including the x-request-id picked up from the
	// response.
	add(4, trace.DirEgress, 30, protocols.EncodeHTTPRequest("GET", "/api/users", nil, 0))
	add(4, trace.DirIngress, 32, protocols.EncodeHTTPResponse(200, map[string]string{"X-Request-Id": "edge-77"}, 48))

	// Socket 5: MySQL (any-first-byte probe) and an error response.
	add(5, trace.DirEgress, 34, protocols.EncodeMySQLQuery("SELECT 1"))
	add(5, trace.DirIngress, 36, protocols.EncodeMySQLOK(4))
	add(5, trace.DirEgress, 38, protocols.EncodeMySQLQuery("SELECT * FROM missing"))
	add(5, trace.DirIngress, 40, protocols.EncodeMySQLErr(1146))

	// Socket 6: Kafka out-of-order correlation matching.
	add(6, trace.DirEgress, 42, protocols.EncodeKafkaRequest(protocols.KafkaProduce, 70, "orders", 64))
	add(6, trace.DirEgress, 43, protocols.EncodeKafkaRequest(protocols.KafkaFetch, 71, "orders", 0))
	add(6, trace.DirIngress, 45, protocols.EncodeKafkaResponse(71, 0, 32))
	add(6, trace.DirIngress, 47, protocols.EncodeKafkaResponse(70, 7, 0))

	// Socket 7: unparsable flow — inference misses until the budget runs
	// out, then the probe is retired.
	for i := 0; i < InferMaxTries+3; i++ {
		add(7, trace.DirEgress, 50+i, []byte("\x00\x01\x02\x03 not a protocol"))
	}

	// Socket 8: a request whose response falls outside the adjacent window
	// slot (emitted as orphan + timeout), and one with no response at all.
	add(8, trace.DirEgress, 70, protocols.EncodeRedisCommand("GET", "user:1"))
	evs = append(evs, equivEvent(8, trace.DirIngress, base.Add(3*WindowDuration), []byte("+OK\r\n")))
	evs = append(evs, equivEvent(8, trace.DirEgress, base.Add(3*WindowDuration+time.Millisecond),
		protocols.EncodeRedisCommand("GET", "user:2")))
	return evs
}

// equivStreamDigest is the SHA-256 of the trace.AppendSpan bytes equivStream
// emits, concatenated in emit order. A change to it is a change to the
// agent's span output.
const equivStreamDigest = "929e25746f22feba95fd34ec2f5458c1d7b0e505c9fe9c52bdd82f25983de65d"

// TestSessionizerGolden pins the sessionizer's output byte for byte, and its
// accounting: every non-continuation message on an inferred flow is parsed
// exactly once.
func TestSessionizerGolden(t *testing.T) {
	h := sha256.New()
	spans := 0
	sz := NewSessionizer(&trace.IDAllocator{}, nil, nil, func(s *trace.Span) {
		h.Write(trace.AppendSpan(nil, s))
		spans++
	})
	for _, ev := range equivStream(time.Unix(1700000000, 0)) {
		sz.Feed(ev)
	}
	sz.FlushAll()
	if got := hex.EncodeToString(h.Sum(nil)); got != equivStreamDigest || spans != 16 {
		t.Fatalf("%d spans, digest %s; want 16 spans, digest %s", spans, got, equivStreamDigest)
	}
	got := [4]int{sz.SlowPathMsgs, sz.Unparsable, sz.OrphanResps, sz.InferGiveups}
	if want := [4]int{28, 11, 2, 1}; got != want {
		t.Fatalf("[parsed unparsable orphans giveups] = %v, want %v", got, want)
	}
}

// TestInferenceGiveupCap pins the retry budget: a flow that matches no
// codec is probed InferMaxTries times, counted once as a give-up, and
// never probed again — but its flow metrics keep accumulating.
func TestInferenceGiveupCap(t *testing.T) {
	var spans []*trace.Span
	sz := NewSessionizer(&trace.IDAllocator{}, nil, nil, func(s *trace.Span) { spans = append(spans, s) })
	base := time.Unix(1700000000, 0)

	garbage := []byte("\x7f\x02\x03\x04 definitely not a protocol")
	total := InferMaxTries + 5
	for i := 0; i < total; i++ {
		sz.Feed(equivEvent(1, trace.DirEgress, base.Add(time.Duration(i)*time.Millisecond), garbage))
	}
	if sz.InferGiveups != 1 {
		t.Fatalf("InferGiveups = %d, want 1 (counted once per flow)", sz.InferGiveups)
	}
	if sz.Unparsable != total {
		t.Fatalf("Unparsable = %d, want %d (accounting continues past give-up)", sz.Unparsable, total)
	}
	fs := sz.flows[sz.key(&MessageEvent{Socket: 1, Source: trace.SourceEBPF})]
	if fs == nil || !fs.gaveUp || fs.codec != nil {
		t.Fatalf("flow state = %+v, want gaveUp with no codec", fs)
	}
	if fs.inferTry != InferMaxTries {
		t.Fatalf("inferTry = %d, want %d (probe retired at the cap)", fs.inferTry, InferMaxTries)
	}
	if fs.msgs != uint64(total) {
		t.Fatalf("flow msgs = %d, want %d", fs.msgs, total)
	}
	if len(spans) != 0 {
		t.Fatalf("unparsable flow emitted %d spans", len(spans))
	}

	// A different flow that starts speaking a real protocol within the
	// budget still gets inferred.
	for i := 0; i < InferMaxTries-1; i++ {
		sz.Feed(equivEvent(2, trace.DirEgress, base.Add(time.Duration(i)*time.Millisecond), garbage))
	}
	sz.Feed(equivEvent(2, trace.DirEgress, base.Add(time.Second), protocols.EncodeGRPCRequest(1, "/x.Y/Z", nil, 0)))
	if sz.Inferred[trace.L7GRPC] != 1 {
		t.Fatalf("Inferred = %v, want gRPC hit on the last try", sz.Inferred)
	}
	if sz.InferGiveups != 1 {
		t.Fatalf("InferGiveups = %d after successful late inference, want still 1", sz.InferGiveups)
	}
}
