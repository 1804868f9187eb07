package protocols

import (
	"encoding/binary"

	"deepflow/internal/trace"
)

// KafkaCodec implements a Kafka-style binary RPC (paper reference [35]):
// size-prefixed frames with API keys and correlation IDs. Parallel protocol
// matched by correlation ID.
//
// Frame layout (big endian, like Kafka):
//
//	0: u32 size (bytes after this field)
//	4: u8  kind (0 = request, 1 = response)
//	requests:  5: i16 api key, 7: i16 api version, 9: i32 correlation id,
//	           13: u16 topic len, topic, payload...
//	responses: 5: i32 correlation id, 9: i16 error code, payload...
type KafkaCodec struct{}

// Proto implements Codec.
func (KafkaCodec) Proto() trace.L7Proto { return trace.L7Kafka }

// Kafka API keys the workloads use.
const (
	KafkaProduce  = 0
	KafkaFetch    = 1
	KafkaMetadata = 3
)

var kafkaAPINames = map[int16]string{KafkaProduce: "Produce", KafkaFetch: "Fetch", KafkaMetadata: "Metadata"}

// Traits implements TraitedCodec. The big-endian frame size can put any
// value in the first byte, so Kafka is probed on every first byte.
func (KafkaCodec) Traits() Traits {
	return Traits{Parallel: true, MinLen: 11}
}

// Infer implements Codec.
func (KafkaCodec) Infer(payload []byte) bool {
	if len(payload) < 11 {
		return false
	}
	be := binary.BigEndian
	size := be.Uint32(payload[0:])
	if int(size)+4 != len(payload) {
		return false
	}
	switch payload[4] {
	case 0:
		api := int16(be.Uint16(payload[5:]))
		_, known := kafkaAPINames[api]
		return known
	case 1:
		return true
	}
	return false
}

// Parse implements Codec.
func (KafkaCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 11 {
		return Message{}, ErrShort
	}
	be := binary.BigEndian
	size := int(be.Uint32(payload[0:]))
	msg := Message{Proto: trace.L7Kafka, TotalLen: size + 4}
	switch payload[4] {
	case 0:
		if len(payload) < 15 {
			return Message{}, ErrShort
		}
		msg.Type = trace.MsgRequest
		api := int16(be.Uint16(payload[5:]))
		name, ok := kafkaAPINames[api]
		if !ok {
			return Message{}, errMalformed(trace.L7Kafka, "unknown api key")
		}
		msg.Method = name
		msg.StreamID = uint64(be.Uint32(payload[9:]))
		tl := int(be.Uint16(payload[13:]))
		if 15+tl <= len(payload) {
			msg.Resource = string(payload[15 : 15+tl])
		}
	case 1:
		msg.Type = trace.MsgResponse
		msg.StreamID = uint64(be.Uint32(payload[5:]))
		ec := int16(be.Uint16(payload[9:]))
		msg.Code = int32(ec)
		if ec == 0 {
			msg.Status = "ok"
		} else {
			msg.Status = "error"
		}
	default:
		return Message{}, errMalformed(trace.L7Kafka, "bad frame kind")
	}
	return msg, nil
}

// EncodeKafkaRequest builds a request frame.
func EncodeKafkaRequest(api int16, correlation uint32, topic string, bodyLen int) []byte {
	be := binary.BigEndian
	out := make([]byte, 15+len(topic)+bodyLen)
	be.PutUint32(out[0:], uint32(len(out)-4))
	out[4] = 0
	be.PutUint16(out[5:], uint16(api))
	be.PutUint16(out[7:], 2) // api version
	be.PutUint32(out[9:], correlation)
	be.PutUint16(out[13:], uint16(len(topic)))
	copy(out[15:], topic)
	return out
}

// EncodeKafkaResponse builds a response frame.
func EncodeKafkaResponse(correlation uint32, errCode int16, bodyLen int) []byte {
	be := binary.BigEndian
	out := make([]byte, 11+bodyLen)
	be.PutUint32(out[0:], uint32(len(out)-4))
	out[4] = 1
	be.PutUint32(out[5:], correlation)
	be.PutUint16(out[9:], uint16(errCode))
	return out
}
