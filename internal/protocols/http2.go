package protocols

import (
	"bytes"
	"encoding/binary"
	"sort"

	"deepflow/internal/trace"
)

// HTTP2Codec implements a framed HTTP/2-style protocol: binary frames with
// stream identifiers, so multiple requests multiplex on one connection
// (parallel protocol — paper §3.3.1 cites HTTP/2 stream identifiers as the
// embedded distinguishing attribute).
//
// Frame layout (little endian):
//
//	0:  magic "h2f\x00" (4 bytes)
//	4:  u8  frame type (1 = request HEADERS, 2 = response HEADERS)
//	5:  u32 stream id
//	9:  u16 status code (responses)
//	11: u32 total message length (frame + body)
//	15: u8  header count, then repeated: u8 klen, k, u8 vlen, v
//	then for requests: u8 mlen, method, u16 plen, path
type HTTP2Codec struct{}

var http2Magic = []byte("h2f\x00")

// Proto implements Codec.
func (HTTP2Codec) Proto() trace.L7Proto { return trace.L7HTTP2 }

// Traits implements TraitedCodec.
func (HTTP2Codec) Traits() Traits {
	return Traits{Parallel: true, FirstBytes: []byte{'h'}, MinLen: 16}
}

// Infer implements Codec.
func (HTTP2Codec) Infer(payload []byte) bool {
	return bytes.HasPrefix(payload, http2Magic)
}

// Parse implements Codec.
func (HTTP2Codec) Parse(payload []byte) (Message, error) {
	if len(payload) < 16 {
		return Message{}, ErrShort
	}
	if !bytes.HasPrefix(payload, http2Magic) {
		return Message{}, errMalformed(trace.L7HTTP2, "bad magic")
	}
	le := binary.LittleEndian
	typ := payload[4]
	msg := Message{
		Proto:    trace.L7HTTP2,
		StreamID: uint64(le.Uint32(payload[5:])),
		TotalLen: int(le.Uint32(payload[11:])),
		Headers:  map[string]string{},
	}
	p := 15
	if p >= len(payload) {
		return Message{}, ErrShort
	}
	hc := int(payload[p])
	p++
	for i := 0; i < hc; i++ {
		if p >= len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated headers")
		}
		kl := int(payload[p])
		p++
		if p+kl > len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated header key")
		}
		k := string(payload[p : p+kl])
		p += kl
		if p >= len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated header value len")
		}
		vl := int(payload[p])
		p++
		if p+vl > len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated header value")
		}
		msg.Headers[k] = string(payload[p : p+vl])
		p += vl
	}
	switch typ {
	case 1:
		msg.Type = trace.MsgRequest
		if p >= len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "missing method")
		}
		ml := int(payload[p])
		p++
		if p+ml > len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated method")
		}
		msg.Method = string(payload[p : p+ml])
		p += ml
		if p+2 > len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "missing path len")
		}
		pl := int(le.Uint16(payload[p:]))
		p += 2
		if p+pl > len(payload) {
			return Message{}, errMalformed(trace.L7HTTP2, "truncated path")
		}
		msg.Resource = string(payload[p : p+pl])
	case 2:
		msg.Type = trace.MsgResponse
		msg.Code = int32(le.Uint16(payload[9:]))
		if msg.Code >= 400 {
			msg.Status = "error"
		} else {
			msg.Status = "ok"
		}
	default:
		return Message{}, errMalformed(trace.L7HTTP2, "unknown frame type")
	}
	return msg, nil
}

func encodeHTTP2(typ byte, stream uint32, code uint16, headers map[string]string, method, path string, bodyLen int) []byte {
	var b bytes.Buffer
	b.Write(http2Magic)
	b.WriteByte(typ)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], stream)
	b.Write(tmp[:4])
	binary.LittleEndian.PutUint16(tmp[:2], code)
	b.Write(tmp[:2])
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
		b.WriteByte(byte(len(method)))
		b.WriteString(method)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(path)))
		b.Write(tmp[:2])
		b.WriteString(path)
	}
	b.Write(make([]byte, bodyLen))
	out := b.Bytes()
	binary.LittleEndian.PutUint32(out[lenPos:], uint32(len(out)))
	return out
}

// EncodeHTTP2Request builds a request frame on the given stream.
func EncodeHTTP2Request(stream uint32, method, path string, headers map[string]string, bodyLen int) []byte {
	return encodeHTTP2(1, stream, 0, headers, method, path, bodyLen)
}

// EncodeHTTP2Response builds a response frame on the given stream.
func EncodeHTTP2Response(stream uint32, code uint16, headers map[string]string, bodyLen int) []byte {
	return encodeHTTP2(2, stream, code, headers, "", "", bodyLen)
}
