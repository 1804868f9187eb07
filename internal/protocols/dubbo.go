package protocols

import (
	"encoding/binary"

	"deepflow/internal/trace"
)

// DubboCodec implements the Dubbo RPC framing (paper reference [36]):
// 0xdabb magic, a flag byte with a request bit, a status byte, a 64-bit
// request ID, and a length-prefixed body. Parallel protocol matched by
// request ID.
//
// Layout (big endian):
//
//	0:  u16 magic 0xdabb
//	2:  u8  flags (0x80 = request)
//	3:  u8  status (responses: 20 = OK)
//	4:  u64 request id
//	12: u32 body length
//	16: requests: u16 service len, service, u16 method len, method
type DubboCodec struct{}

// Proto implements Codec.
func (DubboCodec) Proto() trace.L7Proto { return trace.L7Dubbo }

const dubboMagic = 0xdabb

// DubboStatusOK is the OK response status.
const DubboStatusOK = 20

// Traits implements TraitedCodec.
func (DubboCodec) Traits() Traits {
	return Traits{Parallel: true, FirstBytes: []byte{0xda}, MinLen: 16}
}

// Infer implements Codec.
func (DubboCodec) Infer(payload []byte) bool {
	return len(payload) >= 16 && binary.BigEndian.Uint16(payload) == dubboMagic
}

// Parse implements Codec.
func (DubboCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 16 {
		return Message{}, ErrShort
	}
	be := binary.BigEndian
	if be.Uint16(payload) != dubboMagic {
		return Message{}, errMalformed(trace.L7Dubbo, "bad magic")
	}
	flags := payload[2]
	status := payload[3]
	msg := Message{
		Proto:    trace.L7Dubbo,
		StreamID: be.Uint64(payload[4:]),
		TotalLen: 16 + int(be.Uint32(payload[12:])),
	}
	if flags&0x80 != 0 {
		msg.Type = trace.MsgRequest
		p := 16
		if p+2 > len(payload) {
			return msg, nil
		}
		sl := int(be.Uint16(payload[p:]))
		p += 2
		if p+sl > len(payload) {
			return Message{}, errMalformed(trace.L7Dubbo, "truncated service")
		}
		msg.Resource = string(payload[p : p+sl])
		p += sl
		if p+2 <= len(payload) {
			ml := int(be.Uint16(payload[p:]))
			p += 2
			if p+ml <= len(payload) {
				msg.Method = string(payload[p : p+ml])
			}
		}
	} else {
		msg.Type = trace.MsgResponse
		msg.Code = int32(status)
		if status == DubboStatusOK {
			msg.Status = "ok"
		} else {
			msg.Status = "error"
		}
	}
	return msg, nil
}

// EncodeDubboRequest builds a request frame.
func EncodeDubboRequest(id uint64, service, method string, bodyLen int) []byte {
	be := binary.BigEndian
	body := make([]byte, 2+len(service)+2+len(method)+bodyLen)
	be.PutUint16(body[0:], uint16(len(service)))
	copy(body[2:], service)
	off := 2 + len(service)
	be.PutUint16(body[off:], uint16(len(method)))
	copy(body[off+2:], method)
	out := make([]byte, 16+len(body))
	be.PutUint16(out[0:], dubboMagic)
	out[2] = 0x80
	be.PutUint64(out[4:], id)
	be.PutUint32(out[12:], uint32(len(body)))
	copy(out[16:], body)
	return out
}

// EncodeDubboResponse builds a response frame with the given status.
func EncodeDubboResponse(id uint64, status uint8, bodyLen int) []byte {
	be := binary.BigEndian
	out := make([]byte, 16+bodyLen)
	be.PutUint16(out[0:], dubboMagic)
	out[3] = status
	be.PutUint64(out[4:], id)
	be.PutUint32(out[12:], uint32(bodyLen))
	return out
}
