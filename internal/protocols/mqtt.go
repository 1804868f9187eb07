package protocols

import (
	"deepflow/internal/trace"
)

// MQTTCodec implements MQTT 3.1 fixed-header framing (paper reference [57]).
// The workloads use QoS-1 PUBLISH/PUBACK pairs, matched in pipeline order.
type MQTTCodec struct{}

// Proto implements Codec.
func (MQTTCodec) Proto() trace.L7Proto { return trace.L7MQTT }

// MQTT packet types.
const (
	mqttConnect   = 1
	mqttConnack   = 2
	mqttPublish   = 3
	mqttPuback    = 4
	mqttSubscribe = 8
	mqttSuback    = 9
)

var mqttNames = map[byte]string{
	mqttConnect: "CONNECT", mqttConnack: "CONNACK",
	mqttPublish: "PUBLISH", mqttPuback: "PUBACK",
	mqttSubscribe: "SUBSCRIBE", mqttSuback: "SUBACK",
}

// mqttFirstBytes enumerates every byte whose high nibble is a known MQTT
// packet type (the low flag nibble is arbitrary).
var mqttFirstBytes = mqttFirstByteSet()

func mqttFirstByteSet() []byte {
	types := []byte{mqttConnect, mqttConnack, mqttPublish, mqttPuback, mqttSubscribe, mqttSuback}
	out := make([]byte, 0, len(types)*16)
	for _, t := range types {
		for low := byte(0); low < 16; low++ {
			out = append(out, t<<4|low)
		}
	}
	return out
}

// Traits implements TraitedCodec.
func (MQTTCodec) Traits() Traits {
	return Traits{FirstBytes: mqttFirstBytes, MinLen: 2}
}

// Infer implements Codec.
func (MQTTCodec) Infer(payload []byte) bool {
	if len(payload) < 2 {
		return false
	}
	typ := payload[0] >> 4
	if _, ok := mqttNames[typ]; !ok {
		return false
	}
	rem, n := mqttRemaining(payload[1:])
	if n == 0 {
		return false
	}
	return 1+n+rem == len(payload)
}

// mqttRemaining decodes the MQTT variable-length "remaining length".
func mqttRemaining(b []byte) (value, bytesUsed int) {
	mult := 1
	for i := 0; i < len(b) && i < 4; i++ {
		value += int(b[i]&0x7F) * mult
		if b[i]&0x80 == 0 {
			return value, i + 1
		}
		mult *= 128
	}
	return 0, 0
}

func mqttEncodeRemaining(v int) []byte {
	var out []byte
	for {
		d := byte(v % 128)
		v /= 128
		if v > 0 {
			d |= 0x80
		}
		out = append(out, d)
		if v == 0 {
			return out
		}
	}
}

// Parse implements Codec.
func (MQTTCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 2 {
		return Message{}, ErrShort
	}
	typ := payload[0] >> 4
	name, ok := mqttNames[typ]
	if !ok {
		return Message{}, errMalformed(trace.L7MQTT, "unknown packet type")
	}
	rem, n := mqttRemaining(payload[1:])
	if n == 0 {
		return Message{}, errMalformed(trace.L7MQTT, "bad remaining length")
	}
	msg := Message{Proto: trace.L7MQTT, Method: name, TotalLen: 1 + n + rem}
	body := payload[1+n:]
	switch typ {
	case mqttConnect, mqttPublish, mqttSubscribe:
		msg.Type = trace.MsgRequest
		if typ == mqttPublish || typ == mqttSubscribe {
			if len(body) >= 2 {
				tl := int(body[0])<<8 | int(body[1])
				if 2+tl <= len(body) {
					msg.Resource = string(body[2 : 2+tl])
				}
			}
		}
	case mqttConnack, mqttPuback, mqttSuback:
		msg.Type = trace.MsgResponse
		msg.Status = "ok"
		if typ == mqttConnack && len(body) >= 2 && body[1] != 0 {
			msg.Status = "error"
			msg.Code = int32(body[1])
		}
	}
	return msg, nil
}

// EncodeMQTTPublish builds a PUBLISH packet for topic with a body.
func EncodeMQTTPublish(topic string, bodyLen int) []byte {
	body := make([]byte, 2+len(topic)+2+bodyLen)
	body[0] = byte(len(topic) >> 8)
	body[1] = byte(len(topic))
	copy(body[2:], topic)
	// 2-byte packet identifier follows the topic (left zero), then payload.
	head := append([]byte{mqttPublish<<4 | 0x02}, mqttEncodeRemaining(len(body))...)
	return append(head, body...)
}

// EncodeMQTTPuback builds a PUBACK packet.
func EncodeMQTTPuback() []byte {
	return []byte{mqttPuback << 4, 2, 0, 0}
}
