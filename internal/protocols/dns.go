package protocols

import (
	"encoding/binary"
	"strings"

	"deepflow/internal/trace"
)

// DNSCodec implements the RFC 1035 wire format (one question, no EDNS).
// DNS is a parallel protocol: responses are matched to requests by the
// 16-bit message ID (paper §3.3.1 cites "IDs in DNS headers").
type DNSCodec struct{}

// Proto implements Codec.
func (DNSCodec) Proto() trace.L7Proto { return trace.L7DNS }

// Traits implements TraitedCodec. The leading 16-bit message ID can hold
// any value, so DNS is probed on every first byte.
func (DNSCodec) Traits() Traits {
	return Traits{Parallel: true, MinLen: 12}
}

// Infer implements Codec.
func (DNSCodec) Infer(payload []byte) bool {
	if len(payload) < 12 {
		return false
	}
	be := binary.BigEndian
	flags := be.Uint16(payload[2:])
	qd := be.Uint16(payload[4:])
	// Opcode must be QUERY (0) and exactly one question; Z bits zero.
	if qd != 1 || flags&0x0070 != 0 || (flags>>11)&0xF != 0 {
		return false
	}
	_, _, ok := dnsName(payload, 12)
	return ok
}

// dnsName decodes a label sequence starting at off; returns the dotted name
// and the offset just past the terminating zero byte.
func dnsName(b []byte, off int) (string, int, bool) {
	var labels []string
	for {
		if off >= len(b) {
			return "", 0, false
		}
		n := int(b[off])
		off++
		if n == 0 {
			break
		}
		if n > 63 || off+n > len(b) {
			return "", 0, false
		}
		labels = append(labels, string(b[off:off+n]))
		off += n
	}
	if len(labels) == 0 {
		return "", 0, false
	}
	return strings.Join(labels, "."), off, true
}

var dnsTypes = map[uint16]string{1: "A", 5: "CNAME", 15: "MX", 16: "TXT", 28: "AAAA", 33: "SRV"}

// Parse implements Codec.
func (DNSCodec) Parse(payload []byte) (Message, error) {
	if len(payload) < 12 {
		return Message{}, ErrShort
	}
	be := binary.BigEndian
	id := be.Uint16(payload[0:])
	flags := be.Uint16(payload[2:])
	name, off, ok := dnsName(payload, 12)
	if !ok || off+4 > len(payload) {
		return Message{}, errMalformed(trace.L7DNS, "bad question section")
	}
	qtype := be.Uint16(payload[off:])
	msg := Message{
		Proto:    trace.L7DNS,
		StreamID: uint64(id),
		Resource: name,
		Method:   dnsTypes[qtype],
		TotalLen: len(payload),
	}
	if msg.Method == "" {
		msg.Method = "TYPE?"
	}
	if flags&0x8000 == 0 {
		msg.Type = trace.MsgRequest
	} else {
		msg.Type = trace.MsgResponse
		rcode := int32(flags & 0xF)
		msg.Code = rcode
		if rcode == 0 {
			msg.Status = "ok"
		} else {
			msg.Status = "error"
		}
	}
	return msg, nil
}

// EncodeDNSQuery builds a one-question query.
func EncodeDNSQuery(id uint16, name string, qtype uint16) []byte {
	b := make([]byte, 12, 12+len(name)+6)
	be := binary.BigEndian
	be.PutUint16(b[0:], id)
	be.PutUint16(b[4:], 1) // QDCOUNT
	b = appendDNSName(b, name)
	var t [4]byte
	be.PutUint16(t[0:], qtype)
	be.PutUint16(t[2:], 1) // IN
	return append(b, t[:]...)
}

// EncodeDNSResponse builds a response carrying rcode and ancount synthetic
// answers (answer bodies are zero-filled placeholders).
func EncodeDNSResponse(id uint16, name string, qtype uint16, rcode uint8, ancount int) []byte {
	b := make([]byte, 12, 64)
	be := binary.BigEndian
	be.PutUint16(b[0:], id)
	be.PutUint16(b[2:], 0x8000|uint16(rcode))
	be.PutUint16(b[4:], 1)
	be.PutUint16(b[6:], uint16(ancount))
	b = appendDNSName(b, name)
	var t [4]byte
	be.PutUint16(t[0:], qtype)
	be.PutUint16(t[2:], 1)
	b = append(b, t[:]...)
	for i := 0; i < ancount; i++ {
		b = append(b, make([]byte, 16)...) // placeholder RR
	}
	return b
}

func appendDNSName(b []byte, name string) []byte {
	for _, label := range strings.Split(name, ".") {
		if label == "" {
			continue
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}
