package microsim

import (
	"fmt"

	"deepflow/internal/protocols"
	"deepflow/internal/trace"
)

// encodeRequest builds a request payload for the given protocol. headers
// are only representable in HTTP/1.1 and HTTP/2; stream is the
// multiplexing ID for parallel protocols.
func encodeRequest(proto trace.L7Proto, method, resource string, headers map[string]string, body int, stream uint64) []byte {
	switch proto {
	case trace.L7HTTP:
		return protocols.EncodeHTTPRequest(orDefault(method, "GET"), resource, headers, body)
	case trace.L7HTTP2:
		return protocols.EncodeHTTP2Request(uint32(stream), orDefault(method, "GET"), resource, headers, body)
	case trace.L7Redis:
		return protocols.EncodeRedisCommand(orDefault(method, "GET"), resource)
	case trace.L7MySQL:
		return protocols.EncodeMySQLQuery(orDefault(resource, "SELECT 1"))
	case trace.L7DNS:
		return protocols.EncodeDNSQuery(uint16(stream), orDefault(resource, "svc.cluster.local"), 1)
	case trace.L7Kafka:
		return protocols.EncodeKafkaRequest(protocols.KafkaProduce, uint32(stream), orDefault(resource, "events"), body)
	case trace.L7MQTT:
		return protocols.EncodeMQTTPublish(orDefault(resource, "topic"), body)
	case trace.L7Dubbo:
		return protocols.EncodeDubboRequest(stream, orDefault(resource, "Service"), orDefault(method, "invoke"), body)
	case trace.L7GRPC:
		return protocols.EncodeGRPCRequest(uint32(stream), orDefault(resource, "/svc.Service/Call"), headers, body)
	case trace.L7Postgres:
		return protocols.EncodePostgresQuery(orDefault(resource, "SELECT 1"))
	case trace.L7AMQP:
		return protocols.EncodeAMQPPublish(uint16(stream), "events", orDefault(resource, "key"), body)
	default:
		panic(fmt.Sprintf("microsim: no request encoder for %v", proto))
	}
}

// isOKCode interprets a response code per protocol: HTTP-family codes are
// OK below 400; Dubbo uses 20 (and the zero value) for success; everything
// else treats zero as success.
func isOKCode(proto trace.L7Proto, code int32) bool {
	switch proto {
	case trace.L7HTTP, trace.L7HTTP2:
		return code < 400
	case trace.L7Dubbo:
		return code == 0 || code == protocols.DubboStatusOK
	default:
		return code == 0
	}
}

// encodeResponse builds a response payload matching a parsed request.
func encodeResponse(proto trace.L7Proto, req protocols.Message, code int32, headers map[string]string, body int) []byte {
	ok := isOKCode(proto, code)
	switch proto {
	case trace.L7HTTP:
		return protocols.EncodeHTTPResponse(int(code), headers, body)
	case trace.L7HTTP2:
		return protocols.EncodeHTTP2Response(uint32(req.StreamID), uint16(code), headers, body)
	case trace.L7Redis:
		if ok {
			return protocols.EncodeRedisReply(body, "")
		}
		return protocols.EncodeRedisReply(0, fmt.Sprintf("code %d", code))
	case trace.L7MySQL:
		if ok {
			return protocols.EncodeMySQLOK(body)
		}
		if code == 0 {
			code = 1105 // ER_UNKNOWN_ERROR
		}
		return protocols.EncodeMySQLErr(uint16(code))
	case trace.L7DNS:
		rcode := uint8(code & 0xF)
		if !ok && rcode == 0 {
			rcode = 3 // NXDOMAIN
		}
		return protocols.EncodeDNSResponse(uint16(req.StreamID), req.Resource, 1, rcode, 1)
	case trace.L7Kafka:
		var ec int16
		if !ok {
			ec = int16(code)
		}
		return protocols.EncodeKafkaResponse(uint32(req.StreamID), ec, body)
	case trace.L7MQTT:
		return protocols.EncodeMQTTPuback()
	case trace.L7Dubbo:
		status := uint8(protocols.DubboStatusOK)
		if !ok {
			status = uint8(code % 256)
		}
		return protocols.EncodeDubboResponse(req.StreamID, status, body)
	case trace.L7GRPC:
		// gRPC responses carry status in the trailer byte and never carry
		// association headers, so the headers argument is deliberately not
		// forwarded.
		status := uint8(protocols.GRPCStatusOK)
		if !ok {
			status = uint8(code % 256)
		}
		return protocols.EncodeGRPCResponse(uint32(req.StreamID), status, body)
	case trace.L7Postgres:
		if ok {
			return protocols.EncodePostgresComplete("SELECT 1", body)
		}
		return protocols.EncodePostgresError("XX000", fmt.Sprintf("code %d", code))
	case trace.L7AMQP:
		if ok {
			return protocols.EncodeAMQPAck(uint16(req.StreamID))
		}
		rc := uint16(code)
		if rc == 0 {
			rc = 541
		}
		return protocols.EncodeAMQPClose(uint16(req.StreamID), rc, "error")
	default:
		panic(fmt.Sprintf("microsim: no response encoder for %v", proto))
	}
}

// okCode returns the protocol's success code for span assertions.
func okCode(proto trace.L7Proto) int32 {
	switch proto {
	case trace.L7HTTP, trace.L7HTTP2:
		return 200
	case trace.L7Dubbo:
		return protocols.DubboStatusOK
	default:
		return 0
	}
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// tlsWrap encrypts a payload: a TLS application-data record header followed
// by an XOR-scrambled body. The syscall plane sees this ciphertext; the
// ssl_read/ssl_write uprobes see the plaintext.
func tlsWrap(plain []byte) []byte {
	out := make([]byte, 5+len(plain))
	out[0] = 23 // application data
	out[1] = 3
	out[2] = 3
	out[3] = byte(len(plain) >> 8)
	out[4] = byte(len(plain))
	for i, b := range plain {
		out[5+i] = b ^ 0xAA
	}
	return out
}

// tlsUnwrap decrypts a tlsWrap payload.
func tlsUnwrap(cipher []byte) []byte {
	if len(cipher) < 5 || cipher[0] != 23 {
		return nil
	}
	out := make([]byte, len(cipher)-5)
	for i := range out {
		out[i] = cipher[5+i] ^ 0xAA
	}
	return out
}
