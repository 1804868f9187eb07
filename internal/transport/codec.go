package transport

import (
	"encoding/binary"
	"fmt"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
)

func nsUTC(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// Wire format: a two-byte header (magic, version|encoding), the emitting
// host, a batch sequence number, three row counts, then the row sections.
// All integers are varints; strings are length-prefixed (see trace/wire.go
// for the per-span layout).
const (
	wireMagic   = 0xDF
	wireVersion = 1
)

// WireEncoding selects how resource tags travel on the wire — the
// transport-plane analogue of the server's storage Encoding, swept by the
// `dfbench ingest` experiment. The live path always uses WireSmart.
type WireEncoding uint8

// Wire encodings.
const (
	// WireSmart ships resource tags as eight small integers (VPC + IP and
	// six zero placeholders the server fills) — DeepFlow's design.
	WireSmart WireEncoding = iota
	// WireDirect additionally ships the six resolved tag names as raw
	// strings per span, as an agent would if names were resolved at the
	// edge ("direct storing" moved to the wire).
	WireDirect
	// WireLowCard ships resolved names through a per-batch dictionary:
	// names once, per-span indexes.
	WireLowCard
)

func (e WireEncoding) String() string {
	switch e {
	case WireSmart:
		return "smart-encoding"
	case WireDirect:
		return "direct"
	case WireLowCard:
		return "low-cardinality"
	default:
		return "wire?"
	}
}

// TagResolver resolves a span's integer resource tags to the six tag names
// (pod, node, service, namespace, region, az). Only the non-smart
// encodings need one; the experiment passes the server registry's decoder.
type TagResolver func(trace.ResourceTags) [6]string

// Encoder serializes batches under one wire encoding.
type Encoder struct {
	Enc     WireEncoding
	Resolve TagResolver // required for WireDirect / WireLowCard
}

// Encode serializes a batch. The smart encoding is canonical and lossless:
// Decode(Encode(b)) round-trips every field. The direct and low-cardinality
// encodings append resolved tag names after each span — redundant bytes
// derived from the integer tags, which is exactly the waste the experiment
// measures — and Decode discards them.
func (e *Encoder) Encode(b *Batch) []byte {
	buf := make([]byte, 0, 256+64*b.Rows())
	buf = append(buf, wireMagic, wireVersion<<4|byte(e.Enc))
	buf = trace.AppendString(buf, b.Host)
	buf = binary.AppendUvarint(buf, b.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(b.Spans)))
	buf = binary.AppendUvarint(buf, uint64(len(b.Flows)))
	buf = binary.AppendUvarint(buf, uint64(len(b.Profiles)))

	var dict map[string]uint64
	if e.Enc == WireLowCard {
		// Per-batch name dictionary, in first-appearance order.
		dict = make(map[string]uint64)
		var names []string
		for _, sp := range b.Spans {
			for _, name := range e.resolve(sp.Resource) {
				if _, ok := dict[name]; !ok {
					dict[name] = uint64(len(names))
					names = append(names, name)
				}
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			buf = trace.AppendString(buf, name)
		}
	}

	for _, sp := range b.Spans {
		buf = trace.AppendSpan(buf, sp)
		switch e.Enc {
		case WireDirect:
			for _, name := range e.resolve(sp.Resource) {
				buf = trace.AppendString(buf, name)
			}
		case WireLowCard:
			for _, name := range e.resolve(sp.Resource) {
				buf = binary.AppendUvarint(buf, dict[name])
			}
		}
	}
	for i := range b.Flows {
		buf = AppendFlowSample(buf, &b.Flows[i])
	}
	for i := range b.Profiles {
		buf = AppendProfileSample(buf, &b.Profiles[i])
	}
	return buf
}

func (e *Encoder) resolve(rt trace.ResourceTags) [6]string {
	if e.Resolve == nil {
		return [6]string{}
	}
	return e.Resolve(rt)
}

// Encode serializes a batch under the canonical smart wire encoding — the
// live agent→server path.
func Encode(b *Batch) []byte {
	enc := Encoder{Enc: WireSmart}
	return enc.Encode(b)
}

// Decode deserializes a batch produced by any wire encoding. Tag-name
// blocks of the non-smart encodings are validated and discarded: the
// integer tags they were derived from travel in the span itself, so decode
// is lossless for every encoding.
func Decode(data []byte) (*Batch, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("transport: batch too short (%d bytes)", len(data))
	}
	if data[0] != wireMagic {
		return nil, fmt.Errorf("transport: bad magic 0x%02x", data[0])
	}
	version, enc := data[1]>>4, WireEncoding(data[1]&0x0f)
	if version != wireVersion {
		return nil, fmt.Errorf("transport: unsupported wire version %d", version)
	}
	if enc > WireLowCard {
		return nil, fmt.Errorf("transport: unknown wire encoding %d", enc)
	}
	r := trace.WireReader{Data: data, Pos: 2}
	b := &Batch{}
	b.Host = r.String()
	b.Seq = r.Uvarint()
	nSpans := r.Uvarint()
	nFlows := r.Uvarint()
	nProfiles := r.Uvarint()
	if r.Err != nil {
		return nil, r.Err
	}
	if nSpans+nFlows+nProfiles > uint64(len(data)) { // each row takes ≥1 byte
		return nil, fmt.Errorf("transport: impossible row counts (%d/%d/%d in %d bytes)",
			nSpans, nFlows, nProfiles, len(data))
	}

	var dictLen uint64
	if enc == WireLowCard {
		dictLen = r.Uvarint()
		for i := uint64(0); i < dictLen && r.Err == nil; i++ {
			_ = r.String() // names are redundant with the integer tags
		}
	}

	b.Spans = make([]*trace.Span, 0, nSpans)
	for i := uint64(0); i < nSpans; i++ {
		if r.Err != nil {
			return nil, r.Err
		}
		sp, n, err := trace.DecodeSpan(data[r.Pos:])
		if err != nil {
			return nil, err
		}
		r.Pos += n
		switch enc {
		case WireDirect:
			for j := 0; j < 6; j++ {
				_ = r.String() // redundant resolved names, discarded
			}
		case WireLowCard:
			for j := 0; j < 6; j++ {
				if idx := r.Uvarint(); idx >= dictLen && r.Err == nil {
					return nil, fmt.Errorf("transport: tag index %d out of dictionary (%d)", idx, dictLen)
				}
			}
		}
		b.Spans = append(b.Spans, sp)
	}
	for i := uint64(0); i < nFlows && r.Err == nil; i++ {
		b.Flows = append(b.Flows, DecodeFlowSample(&r))
	}
	for i := uint64(0); i < nProfiles && r.Err == nil; i++ {
		b.Profiles = append(b.Profiles, DecodeProfileSample(&r))
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Pos != len(data) {
		return nil, fmt.Errorf("transport: %d trailing bytes after batch", len(data)-r.Pos)
	}
	return b, nil
}

// AppendFlowSample appends one kernel flow sample's wire encoding.
// Exported (like AppendProfileSample) because sealed storage blocks
// (internal/dstore) persist flow and profile side-sections in this exact
// layout rather than inventing a second format.
func AppendFlowSample(buf []byte, f *FlowSample) []byte {
	buf = binary.AppendVarint(buf, f.TS.UnixNano())
	buf = trace.AppendString(buf, f.Host)
	buf = trace.AppendString(buf, f.NIC)
	buf = trace.AppendFiveTuple(buf, f.Tuple)
	buf = trace.AppendNetMetrics(buf, f.Delta)
	buf = binary.AppendUvarint(buf, f.KernelPackets)
	return binary.AppendUvarint(buf, f.KernelBytes)
}

// DecodeFlowSample reads one flow sample (AppendFlowSample's inverse).
func DecodeFlowSample(r *trace.WireReader) FlowSample {
	var f FlowSample
	f.TS = nsUTC(r.Varint())
	f.Host = r.String()
	f.NIC = r.String()
	f.Tuple = r.FiveTuple()
	f.Delta = r.NetMetrics()
	f.KernelPackets = r.Uvarint()
	f.KernelBytes = r.Uvarint()
	return f
}

// AppendProfileSample appends one profile sample's wire encoding.
func AppendProfileSample(buf []byte, ps *profiling.Sample) []byte {
	buf = trace.AppendString(buf, ps.Host)
	buf = binary.AppendUvarint(buf, uint64(ps.PID))
	buf = trace.AppendString(buf, ps.ProcName)
	buf = binary.AppendUvarint(buf, uint64(len(ps.Stack)))
	for _, frame := range ps.Stack {
		buf = trace.AppendString(buf, frame)
	}
	buf = binary.AppendUvarint(buf, ps.Count)
	buf = binary.AppendVarint(buf, ps.FirstNS)
	buf = binary.AppendVarint(buf, ps.LastNS)
	return trace.AppendResourceTags(buf, ps.Resource)
}

// DecodeProfileSample reads one profile sample (AppendProfileSample's
// inverse).
func DecodeProfileSample(r *trace.WireReader) profiling.Sample {
	var ps profiling.Sample
	ps.Host = r.String()
	ps.PID = r.Uint32()
	ps.ProcName = r.String()
	if n := r.Uvarint(); n > 0 && r.Err == nil {
		if n > uint64(len(r.Data)-r.Pos) {
			r.Fail("truncated profile stack")
			return ps
		}
		if !r.Discard {
			ps.Stack = make([]string, 0, n)
		}
		for i := uint64(0); i < n && r.Err == nil; i++ {
			if frame := r.String(); !r.Discard {
				ps.Stack = append(ps.Stack, frame)
			}
		}
	}
	ps.Count = r.Uvarint()
	ps.FirstNS = r.Varint()
	ps.LastNS = r.Varint()
	ps.Resource = r.ResourceTags()
	return ps
}
