package protocols

import (
	"testing"

	"deepflow/internal/trace"
)

// corpus returns wire samples for every registered protocol: requests, OK
// responses, and error responses where the protocol has them.
func corpus() map[trace.L7Proto][][]byte {
	return map[trace.L7Proto][][]byte{
		trace.L7HTTP: {
			EncodeHTTPRequest("GET", "/x", map[string]string{"X-Request-Id": "r1"}, 0),
			EncodeHTTPResponse(200, nil, 4),
			EncodeHTTPResponse(503, nil, 0),
		},
		trace.L7HTTP2: {
			EncodeHTTP2Request(1, "GET", "/x", nil, 0),
			EncodeHTTP2Response(1, 200, nil, 0),
			EncodeHTTP2Response(3, 504, nil, 0),
		},
		trace.L7GRPC: {
			EncodeGRPCRequest(5, "/acme.Cart/AddItem", map[string]string{"traceparent": "00-a-b-01"}, 32),
			EncodeGRPCResponse(5, GRPCStatusOK, 16),
			EncodeGRPCResponse(7, GRPCStatusUnavailable, 0),
		},
		trace.L7DNS: {
			EncodeDNSQuery(7, "svc.local", 1),
			EncodeDNSResponse(7, "svc.local", 1, 0, 1),
			EncodeDNSResponse(9, "missing.local", 1, 3, 0),
		},
		trace.L7Redis: {
			EncodeRedisCommand("SET", "k", "v"),
			EncodeRedisReply(3, ""),
			EncodeRedisReply(0, "oops"),
		},
		trace.L7MySQL: {
			EncodeMySQLQuery("SELECT 1"),
			EncodeMySQLOK(0),
			EncodeMySQLErr(1146),
		},
		trace.L7Postgres: {
			EncodePostgresQuery("SELECT * FROM orders"),
			EncodePostgresComplete("SELECT 3", 0),
			EncodePostgresError("42P01", "relation does not exist"),
		},
		trace.L7Kafka: {
			EncodeKafkaRequest(KafkaFetch, 1, "t", 0),
			EncodeKafkaResponse(1, 0, 8),
			EncodeKafkaResponse(2, 7, 0),
		},
		trace.L7MQTT: {
			EncodeMQTTPublish("a/b", 10),
			EncodeMQTTPuback(),
		},
		trace.L7AMQP: {
			EncodeAMQPPublish(1, "orders", "created", 64),
			EncodeAMQPAck(1),
			EncodeAMQPClose(1, 312, "no route"),
		},
		trace.L7Dubbo: {
			EncodeDubboRequest(1, "Svc", "m", 0),
			EncodeDubboResponse(1, DubboStatusOK, 0),
			EncodeDubboResponse(2, 50, 0),
		},
	}
}

// TestCrossProtocolMatrix checks every registered codec's samples against
// all other codecs: the owner must claim its own samples, no
// higher-priority codec may claim them (so the owner wins by selectivity,
// not by luck), and full-table inference must return the owner.
func TestCrossProtocolMatrix(t *testing.T) {
	codecs := Default().Codecs()
	prio := map[trace.L7Proto]int{}
	for i, c := range codecs {
		prio[c.Proto()] = i
	}
	for proto, payloads := range corpus() {
		own, ok := prio[proto]
		if !ok {
			t.Fatalf("%v not in registry", proto)
		}
		for i, payload := range payloads {
			if !codecs[own].Infer(payload) {
				t.Errorf("%v sample %d: own codec rejects it", proto, i)
			}
			for j, other := range codecs {
				if j < own && other.Infer(payload) {
					t.Errorf("%v sample %d: higher-priority %v claims it",
						proto, i, other.Proto())
				}
			}
			got := Default().Infer(payload)
			if got == nil {
				t.Errorf("%v sample %d: no codec inferred", proto, i)
			} else if got.Proto() != proto {
				t.Errorf("%v sample %d inferred as %v", proto, i, got.Proto())
			}
		}
	}
}

// TestFirstByteDispatchEquivalence pins the probe-table optimization: for
// every corpus sample and a pile of garbage, first-byte dispatch must give
// exactly the same answer as a full linear scan in priority order.
func TestFirstByteDispatchEquivalence(t *testing.T) {
	table := Default()
	linear := func(payload []byte) Codec {
		for _, c := range table.Codecs() {
			if c.Infer(payload) {
				return c
			}
		}
		return nil
	}
	var inputs [][]byte
	for _, payloads := range corpus() {
		inputs = append(inputs, payloads...)
	}
	inputs = append(inputs,
		nil, []byte{}, []byte{0}, []byte{0xCE}, []byte("random text message"),
		[]byte("GET "), []byte{0x16, 0x03, 0x01, 0x00, 0x05, 1, 2, 3, 4, 5},
		[]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	for i, in := range inputs {
		fast, slow := table.Infer(in), linear(in)
		fp, sp := trace.L7Unknown, trace.L7Unknown
		if fast != nil {
			fp = fast.Proto()
		}
		if slow != nil {
			sp = slow.Proto()
		}
		if fp != sp {
			t.Errorf("input %d: dispatch=%v linear scan=%v", i, fp, sp)
		}
	}
}

// TestParseHeaderAgreesWithParse pins the fast-path contract exactly as
// the sessionizer consumes it. The fast path fires only when ParseHeader
// yields a response, so for responses the two parsers must agree in both
// directions: whenever ParseHeader classifies a payload as a response,
// Parse must succeed with identical stream/code/status/length (else the
// fast path would emit a span the slow path wouldn't, or a different
// one); and whenever Parse yields a response, ParseHeader must too (else
// the fast path silently degrades). Requests always take the slow path,
// so only the type classification has to agree there.
func TestParseHeaderAgreesWithParse(t *testing.T) {
	var inputs [][]byte
	for _, payloads := range corpus() {
		inputs = append(inputs, payloads...)
	}
	inputs = append(inputs, nil, []byte{}, []byte{0, 1, 2, 3}, []byte("garbage input here"))
	for _, c := range Default().Codecs() {
		hp, ok := c.(HeaderParser)
		if !ok {
			continue
		}
		for i, in := range inputs {
			hi, herr := hp.ParseHeader(in)
			msg, perr := c.Parse(in)
			if herr == nil && hi.Type == trace.MsgResponse {
				if perr != nil {
					t.Errorf("%v input %d: ParseHeader yields a response but Parse fails (%v)", c.Proto(), i, perr)
					continue
				}
				if hi.Type != msg.Type || hi.StreamID != msg.StreamID ||
					hi.Code != msg.Code || hi.Status != msg.Status || hi.TotalLen != msg.TotalLen {
					t.Errorf("%v input %d: ParseHeader %+v disagrees with Parse %+v", c.Proto(), i, hi, msg)
				}
				continue
			}
			if perr == nil && msg.Type == trace.MsgResponse {
				t.Errorf("%v input %d: Parse yields a response but ParseHeader missed it (%v, %+v)",
					c.Proto(), i, herr, hi)
			}
			if herr == nil && perr == nil && hi.Type != msg.Type {
				t.Errorf("%v input %d: type mismatch: ParseHeader %v, Parse %v", c.Proto(), i, hi.Type, msg.Type)
			}
		}
	}
}

// dummyCodec is a minimal user codec with no trait declaration.
type dummyCodec struct{ proto trace.L7Proto }

func (d dummyCodec) Proto() trace.L7Proto { return d.proto }
func (d dummyCodec) Infer(p []byte) bool {
	return len(p) >= 4 && p[0] == 0xF1 && p[1] == 0x99
}
func (d dummyCodec) Parse(p []byte) (Message, error) {
	if !(dummyCodec{}).Infer(p) {
		return Message{}, ErrShort
	}
	typ := trace.MsgRequest
	if p[2] == 1 {
		typ = trace.MsgResponse
	}
	return Message{Proto: d.proto, Type: typ, Status: "ok"}, nil
}

// TestRegisterUserCodec checks the Register API: a user codec with no
// Traits declaration is probed on any first byte, ahead of the builtins,
// and defaults to pipeline matching.
func TestRegisterUserCodec(t *testing.T) {
	const userProto = trace.L7Proto(200)
	table := NewTable()
	table.Register(dummyCodec{proto: userProto})

	sample := []byte{0xF1, 0x99, 0, 0}
	if c := table.Infer(sample); c == nil || c.Proto() != userProto {
		t.Fatalf("user codec not inferred: %v", c)
	}
	e := table.Lookup(userProto)
	if e == nil {
		t.Fatal("user codec not in by-proto index")
	}
	if e.Traits.Parallel {
		t.Error("zero-trait user codec must default to pipeline matching")
	}
	if e.Header != nil {
		t.Error("user codec without ParseHeader must not be fast-path eligible")
	}
	// Builtins still infer normally through the same table.
	if c := table.Infer(EncodeHTTPRequest("GET", "/", nil, 0)); c == nil || c.Proto() != trace.L7HTTP {
		t.Errorf("builtin inference broken after Register: %v", c)
	}
	// User codecs take priority: they are probed before every builtin.
	if got := table.Codecs()[0].Proto(); got != userProto {
		t.Errorf("user codec not first in priority order: %v", got)
	}
}

// TestDispatchAllocFree pins the satellite requirement: the default table's
// codec list, protocol lookup and inference must not allocate per call.
func TestDispatchAllocFree(t *testing.T) {
	req := EncodeKafkaRequest(KafkaProduce, 9, "t", 0)
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	Default() // build outside the measured region
	cases := map[string]func(){
		"Codecs":     func() { Default().Codecs() },
		"Lookup":     func() { Default().Lookup(trace.L7Kafka) },
		"Infer-hit":  func() { Default().Infer(req) },
		"Infer-miss": func() { Default().Infer(garbage) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(100, fn); n > 0 {
			t.Errorf("%s allocates %.1f objects per call", name, n)
		}
	}
}

// TestTraitsMatchDeclaredBehavior spot-checks the self-descriptions the
// dispatch layer now depends on.
func TestTraitsMatchDeclaredBehavior(t *testing.T) {
	parallel := []trace.L7Proto{trace.L7HTTP2, trace.L7GRPC, trace.L7DNS, trace.L7Kafka, trace.L7Dubbo}
	pipeline := []trace.L7Proto{trace.L7HTTP, trace.L7Redis, trace.L7MySQL, trace.L7Postgres, trace.L7MQTT, trace.L7AMQP}
	for _, p := range parallel {
		if !isParallel(p) {
			t.Errorf("%v should be parallel", p)
		}
	}
	for _, p := range pipeline {
		if isParallel(p) {
			t.Errorf("%v should be pipeline", p)
		}
	}
	// Codecs whose responses may carry association headers must not be
	// fast-path eligible; others with a ParseHeader must be.
	for _, p := range []trace.L7Proto{trace.L7HTTP, trace.L7HTTP2} {
		if Default().Lookup(p).Header != nil {
			t.Errorf("%v responses carry association headers; must not be fast-path eligible", p)
		}
	}
	for _, p := range []trace.L7Proto{trace.L7GRPC, trace.L7Postgres, trace.L7AMQP,
		trace.L7Redis, trace.L7MySQL, trace.L7Kafka, trace.L7MQTT, trace.L7DNS, trace.L7Dubbo} {
		if Default().Lookup(p).Header == nil {
			t.Errorf("%v should expose a fast-path header parser", p)
		}
	}
	// First-byte declarations must cover what Infer accepts: every corpus
	// sample's first byte is in its codec's probe list.
	for proto, payloads := range corpus() {
		e := Default().Lookup(proto)
		for i, payload := range payloads {
			if e.Traits.FirstBytes == nil {
				continue
			}
			found := false
			for _, b := range e.Traits.FirstBytes {
				if b == payload[0] {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v sample %d: first byte %#x missing from FirstBytes", proto, i, payload[0])
			}
		}
	}
}
