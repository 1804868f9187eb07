package protocols

import (
	"sync"

	"deepflow/internal/trace"
)

// Traits is a codec's self-description for the registration table. The
// dispatch layer never hardwires per-protocol knowledge: everything it
// needs — how responses pair with requests, which first bytes can begin a
// message, the minimum parseable header — is declared here by the codec.
type Traits struct {
	// Parallel marks protocols that multiplex messages on one connection
	// (responses matched by stream ID); false means pipeline matching
	// (responses matched in FIFO order) — paper §3.3.1.
	Parallel bool

	// FirstBytes lists every byte value that can begin a message of this
	// protocol. Inference consults only codecs whose set contains the
	// payload's first byte, so strongly-magic'd binary protocols are
	// probed by a single table lookup. nil means any byte (the codec is
	// probed on every payload, in priority order).
	FirstBytes []byte

	// MinLen is the smallest payload that can possibly carry a message
	// header; shorter payloads skip this codec's Infer entirely.
	MinLen int

	// RespHeaders marks protocols whose responses may carry association
	// headers (X-Request-ID on an HTTP reverse-proxy reply). Their
	// responses need a full header parse to preserve span association, so
	// the agent keeps them on the slow path even when a lightweight
	// header parser exists.
	RespHeaders bool
}

// TraitedCodec is a codec that describes itself. Builtin codecs all
// implement it; user codecs that don't get zero-value traits (pipeline
// matching, probed on any first byte) — exactly the pre-table behavior.
type TraitedCodec interface {
	Codec
	Traits() Traits
}

// HeaderInfo is the lightweight result of ParseHeader: just enough to
// account a message on the agent's fast path — type, stream correlation,
// status, and total length for continuation tracking. No resource strings,
// no header maps, no allocation.
type HeaderInfo struct {
	Type     trace.MessageType
	StreamID uint64
	Code     int32
	Status   string // "ok" | "error"
	TotalLen int
}

// HeaderParser is the optional fast-path face of a codec. ParseHeader must
// agree with Parse: for any payload where it returns a response HeaderInfo,
// Parse must succeed and yield the same Type/StreamID/Code/Status/TotalLen.
// (The agent's fast-path/slow-path equivalence test pins this contract.)
type HeaderParser interface {
	ParseHeader(payload []byte) (HeaderInfo, error)
}

// Entry is one registered codec with its resolved traits.
type Entry struct {
	Codec  Codec
	Traits Traits

	// Header is the codec's fast-path parser, nil when the codec doesn't
	// implement HeaderParser or when its responses may carry association
	// headers (Traits.RespHeaders).
	Header HeaderParser
}

// Table is a codec registration table. Inference priority is registration
// order with user codecs ahead of builtins; all dispatch structures
// (first-byte probe lists, by-proto index, codec list) are derived once at
// registration time, so the hot-path lookups allocate nothing.
type Table struct {
	entries []*Entry // user entries first, then builtins, in priority order
	userEnd int      // entries[:userEnd] are user-registered

	byProto map[trace.L7Proto]*Entry
	codecs  []Codec

	// probe[b] lists, in priority order, the entries whose FirstBytes
	// contain b (or are nil). Infer walks exactly this list.
	probe [256][]*Entry
}

// builtinCodecs is the builtin priority order: binary protocols with
// strong magic first, permissive text protocols last.
func builtinCodecs() []TraitedCodec {
	return []TraitedCodec{
		DubboCodec{},
		HTTP2Codec{},
		GRPCCodec{},
		TLSCodec{},
		AMQPCodec{},
		PostgresCodec{},
		MySQLCodec{},
		KafkaCodec{},
		MQTTCodec{},
		DNSCodec{},
		RedisCodec{},
		HTTPCodec{},
	}
}

// NewTable builds a table holding the builtin codecs plus any user codecs,
// which take inference priority over builtins (they are probed first, as
// ExtraCodecs always were).
func NewTable(extra ...Codec) *Table {
	t := &Table{}
	for _, c := range extra {
		t.insert(c, true)
	}
	for _, c := range builtinCodecs() {
		t.insert(c, false)
	}
	t.rebuild()
	return t
}

// Register adds a user codec to the table, behind previously registered
// user codecs but ahead of every builtin. This is the same API the agent's
// ExtraCodecs configuration feeds; paper §3.3.1's "optional user-supplied
// protocol specifications".
func (t *Table) Register(c Codec) {
	t.insert(c, true)
	t.rebuild()
}

// insert places a codec at the end of the user or builtin section.
func (t *Table) insert(c Codec, user bool) {
	e := &Entry{Codec: c}
	if tc, ok := c.(TraitedCodec); ok {
		e.Traits = tc.Traits()
	}
	if hp, ok := c.(HeaderParser); ok && !e.Traits.RespHeaders {
		e.Header = hp
	}
	if user {
		t.entries = append(t.entries, nil)
		copy(t.entries[t.userEnd+1:], t.entries[t.userEnd:])
		t.entries[t.userEnd] = e
		t.userEnd++
	} else {
		t.entries = append(t.entries, e)
	}
}

// rebuild derives the dispatch structures from the entry list.
func (t *Table) rebuild() {
	t.byProto = make(map[trace.L7Proto]*Entry, len(t.entries))
	t.codecs = make([]Codec, len(t.entries))
	for b := range t.probe {
		t.probe[b] = nil
	}
	for i, e := range t.entries {
		t.codecs[i] = e.Codec
		if _, dup := t.byProto[e.Codec.Proto()]; !dup {
			t.byProto[e.Codec.Proto()] = e
		}
		if e.Traits.FirstBytes == nil {
			for b := range t.probe {
				t.probe[b] = append(t.probe[b], e)
			}
			continue
		}
		for _, b := range e.Traits.FirstBytes {
			t.probe[b] = append(t.probe[b], e)
		}
	}
}

// InferEntry runs one-shot protocol inference: a single first-byte table
// lookup selects the candidate codecs, probed in priority order. Returns
// nil when no codec claims the payload.
func (t *Table) InferEntry(payload []byte) *Entry {
	if len(payload) == 0 {
		return nil
	}
	for _, e := range t.probe[payload[0]] {
		if len(payload) < e.Traits.MinLen {
			continue
		}
		if e.Codec.Infer(payload) {
			return e
		}
	}
	return nil
}

// Infer is InferEntry returning just the codec.
func (t *Table) Infer(payload []byte) Codec {
	if e := t.InferEntry(payload); e != nil {
		return e.Codec
	}
	return nil
}

// Lookup returns the entry for a protocol, or nil.
func (t *Table) Lookup(p trace.L7Proto) *Entry { return t.byProto[p] }

// Codecs returns the table's codecs in priority order. Callers must not
// mutate the returned slice; it is rebuilt only on Register.
func (t *Table) Codecs() []Codec { return t.codecs }

// defaultTable is the builtin-only table, built once on first use.
var (
	defaultOnce  sync.Once
	defaultTable *Table
)

// Default returns the shared builtin codec table.
func Default() *Table {
	defaultOnce.Do(func() { defaultTable = NewTable() })
	return defaultTable
}
