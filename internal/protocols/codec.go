// Package protocols implements the application-protocol codecs the DeepFlow
// agent uses for message-type inference and parsing (paper §3.3.1, phase 2):
// HTTP/1.1, a framed HTTP/2-style protocol, gRPC-over-HTTP/2, DNS, Redis
// (RESP), MySQL client/server, PostgreSQL simple-query, a Kafka-style RPC,
// MQTT, AMQP, and Dubbo.
//
// Each codec can (a) cheaply decide whether a payload looks like its
// protocol (one-shot inference per connection), (b) parse a message into
// protocol-independent metadata — request/response type, resource, status,
// multiplexing stream ID, and any embedded propagation headers — and
// (c) encode synthetic wire messages for the workload simulator. Codecs
// self-describe through the registration table in registry.go: declared
// traits (parallel vs pipeline matching, magic first bytes, minimum header
// length) drive dispatch.
package protocols

import (
	"fmt"

	"deepflow/internal/trace"
)

// Message is the protocol-independent result of parsing one payload.
type Message struct {
	Proto trace.L7Proto
	Type  trace.MessageType

	// Request fields.
	Method   string // verb / command / query type
	Resource string // path / key / table / topic / domain

	// Response fields.
	Code   int32
	Status string // "ok" | "error"

	// StreamID is the protocol's multiplexing correlation identifier for
	// parallel protocols (HTTP/2 stream, DNS ID, Kafka correlation ID,
	// Dubbo request ID). Zero for pipeline protocols.
	StreamID uint64

	// Headers carries propagation metadata found in the message:
	// "traceparent" (W3C), "b3" (Zipkin), "x-request-id" (proxy),
	// plus any application headers.
	Headers map[string]string

	// TotalLen is the declared full message length in bytes, used to
	// recognize continuation syscalls of the same message.
	TotalLen int
}

// Header returns a header value or "".
func (m *Message) Header(key string) string {
	if m.Headers == nil {
		return ""
	}
	return m.Headers[key]
}

// Codec is one protocol implementation.
type Codec interface {
	// Proto identifies the protocol.
	Proto() trace.L7Proto
	// Infer reports whether payload plausibly begins a message of this
	// protocol. It must be selective: inference runs once per connection
	// over all codecs (paper §3.3.1).
	Infer(payload []byte) bool
	// Parse extracts message metadata. It fails on malformed payloads.
	Parse(payload []byte) (Message, error)
}

// ErrShort indicates a payload too small to contain a message header.
var ErrShort = fmt.Errorf("protocols: payload too short")

// errMalformed builds a consistent parse error.
func errMalformed(p trace.L7Proto, why string) error {
	return fmt.Errorf("protocols: malformed %v message: %s", p, why)
}
