package protocols

import (
	"testing"
	"testing/quick"

	"deepflow/internal/trace"
)

func TestHTTPRequestRoundTrip(t *testing.T) {
	payload := EncodeHTTPRequest("GET", "/api/users/42", map[string]string{
		"Host":         "users.svc",
		"Traceparent":  "00-aaaa-bbbb-01",
		"X-Request-Id": "req-123",
	}, 10)
	var c HTTPCodec
	if !c.Infer(payload) {
		t.Fatal("inference failed")
	}
	msg, err := c.Parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != trace.MsgRequest || msg.Method != "GET" || msg.Resource != "/api/users/42" {
		t.Fatalf("msg = %+v", msg)
	}
	if msg.Header("traceparent") != "00-aaaa-bbbb-01" || msg.Header("x-request-id") != "req-123" {
		t.Fatalf("headers = %v", msg.Headers)
	}
	if msg.TotalLen != len(payload) {
		t.Fatalf("TotalLen = %d, want %d", msg.TotalLen, len(payload))
	}
}

func TestHTTPResponseStatuses(t *testing.T) {
	var c HTTPCodec
	ok, err := c.Parse(EncodeHTTPResponse(200, nil, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ok.Type != trace.MsgResponse || ok.Code != 200 || ok.Status != "ok" {
		t.Fatalf("200 = %+v", ok)
	}
	for _, code := range []int{400, 404, 500, 503} {
		m, err := c.Parse(EncodeHTTPResponse(code, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != "error" || m.Code != int32(code) {
			t.Errorf("code %d parsed as %+v", code, m)
		}
	}
}

func TestHTTPTotalLenWithPartialBody(t *testing.T) {
	full := EncodeHTTPRequest("POST", "/upload", nil, 5000)
	headEnd := len(full) - 5000
	truncated := full[:headEnd+100] // only 100 body bytes captured
	var c HTTPCodec
	msg, err := c.Parse(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if msg.TotalLen != len(full) {
		t.Fatalf("TotalLen = %d, want %d (declared via Content-Length)", msg.TotalLen, len(full))
	}
}

func TestHTTP2RoundTrip(t *testing.T) {
	var c HTTP2Codec
	req := EncodeHTTP2Request(7, "POST", "/reviews/5", map[string]string{"x-request-id": "r-9"}, 64)
	if !c.Infer(req) {
		t.Fatal("request inference failed")
	}
	m, err := c.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "POST" || m.Resource != "/reviews/5" || m.StreamID != 7 {
		t.Fatalf("req = %+v", m)
	}
	if m.Header("x-request-id") != "r-9" {
		t.Fatalf("headers = %v", m.Headers)
	}
	if m.TotalLen != len(req) {
		t.Fatalf("TotalLen = %d, want %d", m.TotalLen, len(req))
	}

	resp := EncodeHTTP2Response(7, 504, nil, 0)
	rm, err := c.Parse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Type != trace.MsgResponse || rm.Code != 504 || rm.Status != "error" || rm.StreamID != 7 {
		t.Fatalf("resp = %+v", rm)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	var c DNSCodec
	q := EncodeDNSQuery(0x1234, "reviews.default.svc.cluster.local", 1)
	if !c.Infer(q) {
		t.Fatal("query inference failed")
	}
	m, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Resource != "reviews.default.svc.cluster.local" || m.Method != "A" || m.StreamID != 0x1234 {
		t.Fatalf("query = %+v", m)
	}

	r := EncodeDNSResponse(0x1234, "reviews.default.svc.cluster.local", 1, 0, 2)
	rm, err := c.Parse(r)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Type != trace.MsgResponse || rm.Status != "ok" || rm.StreamID != 0x1234 {
		t.Fatalf("response = %+v", rm)
	}

	nx := EncodeDNSResponse(9, "missing.local", 1, 3, 0)
	nm, _ := c.Parse(nx)
	if nm.Status != "error" || nm.Code != 3 {
		t.Fatalf("NXDOMAIN = %+v", nm)
	}
}

func TestRedisRoundTrip(t *testing.T) {
	var c RedisCodec
	cmd := EncodeRedisCommand("GET", "user:42")
	if !c.Infer(cmd) {
		t.Fatal("command inference failed")
	}
	m, err := c.Parse(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "GET" || m.Resource != "user:42" {
		t.Fatalf("cmd = %+v", m)
	}

	ok, _ := c.Parse(EncodeRedisReply(100, ""))
	if ok.Type != trace.MsgResponse || ok.Status != "ok" {
		t.Fatalf("reply = %+v", ok)
	}
	er, _ := c.Parse(EncodeRedisReply(0, "wrong type"))
	if er.Status != "error" {
		t.Fatalf("error reply = %+v", er)
	}
}

func TestMySQLRoundTrip(t *testing.T) {
	var c MySQLCodec
	q := EncodeMySQLQuery("SELECT * FROM orders WHERE id = 7")
	if !c.Infer(q) {
		t.Fatal("query inference failed")
	}
	m, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "COM_QUERY" || m.Resource != "SELECT * FROM orders" {
		t.Fatalf("query = %+v", m)
	}

	ok, _ := c.Parse(EncodeMySQLOK(10))
	if ok.Type != trace.MsgResponse || ok.Status != "ok" {
		t.Fatalf("ok = %+v", ok)
	}
	er, _ := c.Parse(EncodeMySQLErr(1146))
	if er.Status != "error" || er.Code != 1146 {
		t.Fatalf("err = %+v", er)
	}
}

func TestKafkaRoundTrip(t *testing.T) {
	var c KafkaCodec
	req := EncodeKafkaRequest(KafkaProduce, 888, "orders", 256)
	if !c.Infer(req) {
		t.Fatal("request inference failed")
	}
	m, err := c.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "Produce" || m.Resource != "orders" || m.StreamID != 888 {
		t.Fatalf("req = %+v", m)
	}
	resp := EncodeKafkaResponse(888, 0, 16)
	rm, _ := c.Parse(resp)
	if rm.Type != trace.MsgResponse || rm.Status != "ok" || rm.StreamID != 888 {
		t.Fatalf("resp = %+v", rm)
	}
	bad, _ := c.Parse(EncodeKafkaResponse(9, 7, 0))
	if bad.Status != "error" || bad.Code != 7 {
		t.Fatalf("error resp = %+v", bad)
	}
}

func TestMQTTRoundTrip(t *testing.T) {
	var c MQTTCodec
	pub := EncodeMQTTPublish("sensors/temp", 300)
	if !c.Infer(pub) {
		t.Fatal("publish inference failed")
	}
	m, err := c.Parse(pub)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "PUBLISH" || m.Resource != "sensors/temp" {
		t.Fatalf("publish = %+v", m)
	}
	if m.TotalLen != len(pub) {
		t.Fatalf("TotalLen = %d, want %d", m.TotalLen, len(pub))
	}
	ack, _ := c.Parse(EncodeMQTTPuback())
	if ack.Type != trace.MsgResponse || ack.Method != "PUBACK" || ack.Status != "ok" {
		t.Fatalf("puback = %+v", ack)
	}
}

func TestDubboRoundTrip(t *testing.T) {
	var c DubboCodec
	req := EncodeDubboRequest(0xCAFE, "com.acme.OrderService", "getOrder", 128)
	if !c.Infer(req) {
		t.Fatal("request inference failed")
	}
	m, err := c.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Resource != "com.acme.OrderService" || m.Method != "getOrder" || m.StreamID != 0xCAFE {
		t.Fatalf("req = %+v", m)
	}
	ok, _ := c.Parse(EncodeDubboResponse(0xCAFE, DubboStatusOK, 8))
	if ok.Type != trace.MsgResponse || ok.Status != "ok" || ok.StreamID != 0xCAFE {
		t.Fatalf("ok = %+v", ok)
	}
	er, _ := c.Parse(EncodeDubboResponse(1, 50, 0))
	if er.Status != "error" || er.Code != 50 {
		t.Fatalf("err = %+v", er)
	}
}

// TestInferenceMatrix checks that every codec identifies its own messages
// and rejects every other protocol's messages via the registry ordering —
// the property one-shot connection inference depends on.
func TestInferenceMatrix(t *testing.T) {
	samples := map[trace.L7Proto][][]byte{
		trace.L7HTTP: {
			EncodeHTTPRequest("GET", "/x", nil, 0),
			EncodeHTTPResponse(200, nil, 4),
		},
		trace.L7HTTP2: {
			EncodeHTTP2Request(1, "GET", "/x", nil, 0),
			EncodeHTTP2Response(1, 200, nil, 0),
		},
		trace.L7DNS: {
			EncodeDNSQuery(7, "svc.local", 1),
		},
		trace.L7Redis: {
			EncodeRedisCommand("SET", "k", "v"),
			EncodeRedisReply(3, ""),
		},
		trace.L7MySQL: {
			EncodeMySQLQuery("SELECT 1"),
			EncodeMySQLOK(0),
		},
		trace.L7Kafka: {
			EncodeKafkaRequest(KafkaFetch, 1, "t", 0),
		},
		trace.L7MQTT: {
			EncodeMQTTPublish("a/b", 10),
			EncodeMQTTPuback(),
		},
		trace.L7Dubbo: {
			EncodeDubboRequest(1, "Svc", "m", 0),
			EncodeDubboResponse(1, DubboStatusOK, 0),
		},
	}
	for proto, payloads := range samples {
		for i, payload := range payloads {
			c := Default().Infer(payload)
			if c == nil {
				t.Errorf("%v sample %d: no codec inferred", proto, i)
				continue
			}
			if c.Proto() != proto {
				t.Errorf("%v sample %d inferred as %v", proto, i, c.Proto())
			}
		}
	}
}

func TestInferRejectsGarbage(t *testing.T) {
	for _, garbage := range [][]byte{
		nil,
		{},
		{0x16, 0x03, 0x01},            // TLS handshake
		[]byte("random text message"), // free text
		{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	} {
		if c := Default().Infer(garbage); c != nil {
			t.Errorf("garbage %q inferred as %v", garbage, c.Proto())
		}
	}
}

// isParallel reads the default table's declared trait: whether the protocol
// multiplexes messages on one connection (responses matched by stream ID)
// rather than pipelining (FIFO) — paper §3.3.1, session aggregation.
func isParallel(p trace.L7Proto) bool {
	e := Default().Lookup(p)
	return e != nil && e.Traits.Parallel
}

func TestByProtoAndParallel(t *testing.T) {
	for _, c := range Default().Codecs() {
		if e := Default().Lookup(c.Proto()); e == nil || e.Codec.Proto() != c.Proto() {
			t.Errorf("Lookup(%v) = %v", c.Proto(), e)
		}
	}
	if Default().Lookup(trace.L7Unknown) != nil {
		t.Error("Lookup(unknown) should be nil")
	}
	if _, err := (TLSCodec{}).Parse([]byte{22, 3, 1, 0, 0}); err == nil {
		t.Error("TLS payloads must not parse")
	}
	parallel := []trace.L7Proto{trace.L7HTTP2, trace.L7DNS, trace.L7Kafka, trace.L7Dubbo}
	pipeline := []trace.L7Proto{trace.L7HTTP, trace.L7Redis, trace.L7MySQL, trace.L7MQTT}
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
}

func TestParseMalformedInputs(t *testing.T) {
	codecs := Default().Codecs()
	inputs := [][]byte{
		nil, {}, {0}, {1, 2}, []byte("\r\n"), []byte("GET"),
		[]byte("HTTP/1.1\r\n"),
	}
	for _, c := range codecs {
		for _, in := range inputs {
			// Must not panic; error or degraded message both acceptable.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%v.Parse(%q) panicked: %v", c.Proto(), in, r)
					}
				}()
				c.Parse(in)
			}()
		}
	}
}

// Property: codecs never panic on arbitrary bytes, and inference of random
// bytes never claims Dubbo/HTTP2 (strong magic protocols).
func TestParseFuzzProperty(t *testing.T) {
	codecs := Default().Codecs()
	prop := func(data []byte) bool {
		for _, c := range codecs {
			func() {
				defer func() { recover() }()
				c.Parse(data)
			}()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPMethodsInference(t *testing.T) {
	var c HTTPCodec
	for _, m := range []string{"GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"} {
		if !c.Infer([]byte(m + " /x HTTP/1.1\r\n\r\n")) {
			t.Errorf("method %s not inferred", m)
		}
	}
	if c.Infer([]byte("GETX /x HTTP/1.1")) {
		t.Error("bogus method inferred")
	}
}

func TestGRPCRoundTrip(t *testing.T) {
	var c GRPCCodec
	req := EncodeGRPCRequest(9, "/acme.Cart/AddItem", map[string]string{
		"traceparent":  "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"x-request-id": "r-42",
	}, 128)
	if !c.Infer(req) {
		t.Fatal("request inference failed")
	}
	m, err := c.Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "POST" || m.Resource != "/acme.Cart/AddItem" || m.StreamID != 9 {
		t.Fatalf("req = %+v", m)
	}
	if m.Headers["x-request-id"] != "r-42" {
		t.Fatalf("headers = %v", m.Headers)
	}

	ok, err := c.Parse(EncodeGRPCResponse(9, GRPCStatusOK, 64))
	if err != nil {
		t.Fatal(err)
	}
	if ok.Type != trace.MsgResponse || ok.Status != "ok" || ok.Code != GRPCStatusOK || ok.StreamID != 9 {
		t.Fatalf("ok = %+v", ok)
	}
	// Responses must never carry association headers: that property is what
	// makes gRPC fast-path eligible.
	for _, k := range []string{"x-request-id", "traceparent", "b3"} {
		if _, found := ok.Headers[k]; found {
			t.Fatalf("response carries association header %q", k)
		}
	}
	er, err := c.Parse(EncodeGRPCResponse(11, GRPCStatusUnavailable, 0))
	if err != nil {
		t.Fatal(err)
	}
	if er.Status != "error" || er.Code != GRPCStatusUnavailable || er.StreamID != 11 {
		t.Fatalf("err = %+v", er)
	}
}

func TestPostgresRoundTrip(t *testing.T) {
	var c PostgresCodec
	q := EncodePostgresQuery("select * from orders where id = 7")
	if !c.Infer(q) {
		t.Fatal("query inference failed")
	}
	m, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "SELECT" || m.Resource != "select * from orders" {
		t.Fatalf("query = %+v", m)
	}

	done, err := c.Parse(EncodePostgresComplete("SELECT 3", 40))
	if err != nil {
		t.Fatal(err)
	}
	if done.Type != trace.MsgResponse || done.Status != "ok" || done.Method != "SELECT 3" {
		t.Fatalf("complete = %+v", done)
	}
	er, err := c.Parse(EncodePostgresError("42P01", "relation does not exist"))
	if err != nil {
		t.Fatal(err)
	}
	if er.Status != "error" || er.Code != 1 || er.Resource != "42P01" {
		t.Fatalf("error = %+v", er)
	}
	if c.Infer([]byte("Queen of the night")) {
		t.Error("non-framed text inferred as postgres")
	}
}

func TestAMQPRoundTrip(t *testing.T) {
	var c AMQPCodec
	pub := EncodeAMQPPublish(3, "orders", "order.created", 256)
	if !c.Infer(pub) {
		t.Fatal("publish inference failed")
	}
	m, err := c.Parse(pub)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != trace.MsgRequest || m.Method != "basic.publish" || m.Resource != "orders/order.created" {
		t.Fatalf("publish = %+v", m)
	}
	defaultEx, err := c.Parse(EncodeAMQPPublish(3, "", "order.created", 0))
	if err != nil {
		t.Fatal(err)
	}
	if defaultEx.Resource != "order.created" {
		t.Fatalf("default-exchange publish = %+v", defaultEx)
	}

	ack, err := c.Parse(EncodeAMQPAck(3))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != trace.MsgResponse || ack.Status != "ok" || ack.Method != "basic.ack" {
		t.Fatalf("ack = %+v", ack)
	}
	cl, err := c.Parse(EncodeAMQPClose(3, 312, "NO_ROUTE"))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Status != "error" || cl.Code != 312 || cl.Resource != "NO_ROUTE" {
		t.Fatalf("close = %+v", cl)
	}
	// A method frame with a truncated size field must not infer.
	bad := EncodeAMQPAck(3)
	bad = bad[:len(bad)-1]
	if c.Infer(bad) {
		t.Error("frame without end octet inferred")
	}
}
