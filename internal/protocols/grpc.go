package protocols

import (
	"bytes"
	"encoding/binary"
	"sort"

	"deepflow/internal/trace"
)

// GRPCCodec implements a framed gRPC-over-HTTP/2-style protocol: HEADERS
// frames with stream identifiers carrying a full-method path on requests
// and a grpc-status trailer byte on responses. Like HTTP/2 it multiplexes
// streams on one connection (parallel protocol), but unlike plain HTTP its
// responses never carry proxy association headers — status lives in the
// fixed trailer byte.
//
// Frame layout (big endian):
//
//	0:  magic "gh2\x00" (4 bytes)
//	4:  u8  frame type (1 = request HEADERS, 2 = response HEADERS+trailers)
//	5:  u32 stream id
//	9:  u8  grpc-status (responses; 0 = OK)
//	10: u32 total message length (frame + body)
//	14: u8  header count, then repeated: u8 klen, k, u8 vlen, v
//	then for requests: u16 plen, full-method path "/pkg.Service/Method"
type GRPCCodec struct{}

var grpcMagic = []byte("gh2\x00")

// GRPC status codes the workloads use.
const (
	GRPCStatusOK          = 0
	GRPCStatusNotFound    = 5
	GRPCStatusInternal    = 13
	GRPCStatusUnavailable = 14
)

// Proto implements Codec.
func (GRPCCodec) Proto() trace.L7Proto { return trace.L7GRPC }

// Traits implements TraitedCodec.
func (GRPCCodec) Traits() Traits {
	return Traits{Parallel: true, FirstBytes: []byte{'g'}, MinLen: 15}
}

// Infer implements Codec.
func (GRPCCodec) Infer(payload []byte) bool {
	return len(payload) >= 15 && bytes.HasPrefix(payload, grpcMagic)
}

// Parse implements Codec.
func (GRPCCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 15 {
		return Message{}, ErrShort
	}
	if !bytes.HasPrefix(payload, grpcMagic) {
		return Message{}, errMalformed(trace.L7GRPC, "bad magic")
	}
	be := binary.BigEndian
	msg := Message{
		Proto:    trace.L7GRPC,
		StreamID: uint64(be.Uint32(payload[5:])),
		TotalLen: int(be.Uint32(payload[10:])),
		Headers:  map[string]string{},
	}
	switch payload[4] {
	case 1:
		msg.Type = trace.MsgRequest
	case 2:
		msg.Type = trace.MsgResponse
		msg.Code = int32(payload[9])
		if msg.Code == GRPCStatusOK {
			msg.Status = "ok"
		} else {
			msg.Status = "error"
		}
	default:
		return Message{}, errMalformed(trace.L7GRPC, "unknown frame type")
	}
	p := 14
	hc := int(payload[p])
	p++
	for i := 0; i < hc; i++ {
		if p >= len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "truncated headers")
		}
		kl := int(payload[p])
		p++
		if p+kl > len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "truncated header key")
		}
		k := string(payload[p : p+kl])
		p += kl
		if p >= len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "truncated header value len")
		}
		vl := int(payload[p])
		p++
		if p+vl > len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "truncated header value")
		}
		msg.Headers[k] = string(payload[p : p+vl])
		p += vl
	}
	if msg.Type == trace.MsgRequest {
		// gRPC calls are always HTTP POST; the full-method path is the
		// resource ("/pkg.Service/Method").
		msg.Method = "POST"
		if p+2 > len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "missing path len")
		}
		pl := int(binary.BigEndian.Uint16(payload[p:]))
		p += 2
		if p+pl > len(payload) {
			return Message{}, errMalformed(trace.L7GRPC, "truncated path")
		}
		msg.Resource = string(payload[p : p+pl])
	}
	return msg, nil
}

func encodeGRPC(typ byte, stream uint32, status uint8, headers map[string]string, path string, bodyLen int) []byte {
	var b bytes.Buffer
	b.Write(grpcMagic)
	b.WriteByte(typ)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], stream)
	b.Write(tmp[:4])
	b.WriteByte(status)
	lenPos := b.Len()
	b.Write([]byte{0, 0, 0, 0}) // total length placeholder
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte(byte(len(keys)))
	for _, k := range keys {
		b.WriteByte(byte(len(k)))
		b.WriteString(k)
		b.WriteByte(byte(len(headers[k])))
		b.WriteString(headers[k])
	}
	if typ == 1 {
		binary.BigEndian.PutUint16(tmp[:2], uint16(len(path)))
		b.Write(tmp[:2])
		b.WriteString(path)
	}
	b.Write(make([]byte, bodyLen))
	out := b.Bytes()
	binary.BigEndian.PutUint32(out[lenPos:], uint32(len(out)))
	return out
}

// EncodeGRPCRequest builds a request HEADERS frame on the given stream for
// the full-method path; headers carry propagation metadata (traceparent,
// x-request-id).
func EncodeGRPCRequest(stream uint32, path string, headers map[string]string, bodyLen int) []byte {
	return encodeGRPC(1, stream, 0, headers, path, bodyLen)
}

// EncodeGRPCResponse builds a response frame carrying the grpc-status
// trailer plus the standard transport headers every real gRPC response
// ships (content-type, encoding negotiation). Responses deliberately carry
// no association headers: status and stream live in fixed fields.
func EncodeGRPCResponse(stream uint32, status uint8, bodyLen int) []byte {
	headers := map[string]string{
		":status":              "200",
		"content-type":         "application/grpc",
		"grpc-encoding":        "identity",
		"grpc-accept-encoding": "identity, deflate, gzip",
	}
	if status != GRPCStatusOK {
		headers["grpc-message"] = grpcStatusText(status)
	}
	return encodeGRPC(2, stream, status, headers, "", bodyLen)
}

func grpcStatusText(status uint8) string {
	switch status {
	case GRPCStatusNotFound:
		return "not found"
	case GRPCStatusInternal:
		return "internal"
	case GRPCStatusUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}
