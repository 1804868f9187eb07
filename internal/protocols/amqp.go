package protocols

import (
	"encoding/binary"

	"deepflow/internal/trace"
)

// AMQPCodec implements AMQP 0-9-1 method framing: a one-byte frame type,
// a channel number, a size-prefixed payload of class+method identifiers,
// and the 0xCE frame-end octet. Within a channel, synchronous methods are
// answered in order — pipeline protocol.
//
// Frame layout (big endian):
//
//	0:  u8  frame type (1 = method)
//	1:  u16 channel
//	3:  u32 payload size (bytes between this header and the end octet)
//	7:  u16 class id, 9: u16 method id
//	11: method arguments
//	end: 0xCE frame-end octet
//
// Methods understood: basic.publish (60,40) — request, carrying u8-length
// exchange and routing-key strings; basic.ack (60,80) — OK response;
// channel.close (20,40) — error response with a u16 reply code and
// u8-length reply text.
type AMQPCodec struct{}

// Proto implements Codec.
func (AMQPCodec) Proto() trace.L7Proto { return trace.L7AMQP }

// AMQP class/method identifiers the codec understands.
const (
	amqpFrameMethod = 1
	amqpFrameEnd    = 0xCE

	amqpClassConnection = 10
	amqpClassChannel    = 20
	amqpClassBasic      = 60

	amqpBasicPublish = 40
	amqpBasicAck     = 80
	amqpChannelClose = 40
)

// Traits implements TraitedCodec.
func (AMQPCodec) Traits() Traits {
	return Traits{FirstBytes: []byte{amqpFrameMethod}, MinLen: 12}
}

// amqpClassMethod validates the frame envelope and returns the class and
// method identifiers.
func amqpClassMethod(payload []byte) (class, method uint16, ok bool) {
	if len(payload) < 12 || payload[0] != amqpFrameMethod {
		return 0, 0, false
	}
	be := binary.BigEndian
	size := int(be.Uint32(payload[3:]))
	if size+8 != len(payload) || payload[len(payload)-1] != amqpFrameEnd {
		return 0, 0, false
	}
	return be.Uint16(payload[7:]), be.Uint16(payload[9:]), true
}

// Infer implements Codec.
func (AMQPCodec) Infer(payload []byte) bool {
	class, method, ok := amqpClassMethod(payload)
	if !ok {
		return false
	}
	switch {
	case class == amqpClassBasic && (method == amqpBasicPublish || method == amqpBasicAck):
		return true
	case class == amqpClassChannel && method == amqpChannelClose:
		return true
	}
	return false
}

// Parse implements Codec.
func (AMQPCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 12 {
		return Message{}, ErrShort
	}
	class, method, ok := amqpClassMethod(payload)
	if !ok {
		return Message{}, errMalformed(trace.L7AMQP, "bad frame envelope")
	}
	msg := Message{Proto: trace.L7AMQP, TotalLen: len(payload)}
	body := payload[11 : len(payload)-1]
	switch {
	case class == amqpClassBasic && method == amqpBasicPublish:
		msg.Type = trace.MsgRequest
		msg.Method = "basic.publish"
		exchange, rest, ok := amqpShortStr(body)
		if !ok {
			return Message{}, errMalformed(trace.L7AMQP, "truncated exchange")
		}
		rkey, _, ok := amqpShortStr(rest)
		if !ok {
			return Message{}, errMalformed(trace.L7AMQP, "truncated routing key")
		}
		if exchange != "" {
			msg.Resource = exchange + "/" + rkey
		} else {
			msg.Resource = rkey
		}
	case class == amqpClassBasic && method == amqpBasicAck:
		msg.Type, msg.Status = trace.MsgResponse, "ok"
		msg.Method = "basic.ack"
	case class == amqpClassChannel && method == amqpChannelClose:
		msg.Type, msg.Status = trace.MsgResponse, "error"
		msg.Method = "channel.close"
		msg.Code = 541 // internal-error default
		if len(body) >= 2 {
			msg.Code = int32(binary.BigEndian.Uint16(body))
			if text, _, ok := amqpShortStr(body[2:]); ok {
				msg.Resource = text
			}
		}
	default:
		return Message{}, errMalformed(trace.L7AMQP, "unknown class/method")
	}
	return msg, nil
}

// amqpShortStr decodes a u8-length-prefixed string.
func amqpShortStr(b []byte) (string, []byte, bool) {
	if len(b) < 1 {
		return "", nil, false
	}
	n := int(b[0])
	if 1+n > len(b) {
		return "", nil, false
	}
	return string(b[1 : 1+n]), b[1+n:], true
}

// amqpFrame wraps a method payload in the frame envelope.
func amqpFrame(channel uint16, body []byte) []byte {
	out := make([]byte, 7+len(body)+1)
	be := binary.BigEndian
	out[0] = amqpFrameMethod
	be.PutUint16(out[1:], channel)
	be.PutUint32(out[3:], uint32(len(body)))
	copy(out[7:], body)
	out[len(out)-1] = amqpFrameEnd
	return out
}

// EncodeAMQPPublish builds a basic.publish frame; bodyLen zero bytes model
// the message content that would follow in content frames.
func EncodeAMQPPublish(channel uint16, exchange, routingKey string, bodyLen int) []byte {
	body := make([]byte, 0, 4+2+len(exchange)+len(routingKey)+bodyLen)
	var cm [4]byte
	be := binary.BigEndian
	be.PutUint16(cm[0:], amqpClassBasic)
	be.PutUint16(cm[2:], amqpBasicPublish)
	body = append(body, cm[:]...)
	body = append(body, byte(len(exchange)))
	body = append(body, exchange...)
	body = append(body, byte(len(routingKey)))
	body = append(body, routingKey...)
	body = append(body, make([]byte, bodyLen)...)
	return amqpFrame(channel, body)
}

// EncodeAMQPAck builds a basic.ack frame.
func EncodeAMQPAck(channel uint16) []byte {
	var cm [4]byte
	be := binary.BigEndian
	be.PutUint16(cm[0:], amqpClassBasic)
	be.PutUint16(cm[2:], amqpBasicAck)
	return amqpFrame(channel, cm[:])
}

// EncodeAMQPClose builds a channel.close error frame with a reply code and
// text.
func EncodeAMQPClose(channel uint16, replyCode uint16, replyText string) []byte {
	body := make([]byte, 0, 4+2+1+len(replyText))
	var tmp [4]byte
	be := binary.BigEndian
	be.PutUint16(tmp[0:], amqpClassChannel)
	be.PutUint16(tmp[2:], amqpChannelClose)
	body = append(body, tmp[:]...)
	be.PutUint16(tmp[0:], replyCode)
	body = append(body, tmp[:2]...)
	body = append(body, byte(len(replyText)))
	body = append(body, replyText...)
	return amqpFrame(channel, body)
}
