package transport

import (
	"encoding/binary"
	"fmt"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
)

func nsUTC(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// Wire format: a two-byte header (magic, version in the high nibble and a
// zero encoding nibble), the emitting host, a batch sequence number, three
// row counts, then the row sections. All integers are varints; strings are
// length-prefixed (see trace/wire.go for the per-span layout). Resource
// tags travel as eight small integers (VPC + IP and six zero placeholders
// the server fills) — the paper's smart encoding, the only wire format:
// Decode refuses a non-zero encoding nibble (1 and 2 are what a direct or
// low-cardinality batch, the baselines `dfbench ingest` sizes, would claim).
const (
	wireMagic   = 0xDF
	wireVersion = 1
)

// Encode serializes a batch. The encoding is canonical and lossless:
// Decode(Encode(b)) round-trips every field.
func Encode(b *Batch) []byte {
	buf := make([]byte, 0, 256+64*b.Rows())
	buf = append(buf, wireMagic, wireVersion<<4)
	buf = trace.AppendString(buf, b.Host)
	buf = binary.AppendUvarint(buf, b.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(b.Spans)))
	buf = binary.AppendUvarint(buf, uint64(len(b.Flows)))
	buf = binary.AppendUvarint(buf, uint64(len(b.Profiles)))
	for _, sp := range b.Spans {
		buf = trace.AppendSpan(buf, sp)
	}
	for i := range b.Flows {
		buf = AppendFlowSample(buf, &b.Flows[i])
	}
	for i := range b.Profiles {
		buf = AppendProfileSample(buf, &b.Profiles[i])
	}
	return buf
}

// Decode deserializes a batch produced by Encode. It is the untrusted-bytes
// boundary of the collection plane: anything but a well-formed smart batch
// with no trailing bytes is an error.
func Decode(data []byte) (*Batch, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("transport: batch too short (%d bytes)", len(data))
	}
	if data[0] != wireMagic {
		return nil, fmt.Errorf("transport: bad magic 0x%02x", data[0])
	}
	if version := data[1] >> 4; version != wireVersion {
		return nil, fmt.Errorf("transport: unsupported wire version %d", version)
	}
	if enc := data[1] & 0x0f; enc != 0 {
		return nil, fmt.Errorf("transport: unsupported wire encoding %d", enc)
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

	b.Spans = make([]*trace.Span, 0, nSpans)
	for i := uint64(0); i < nSpans; i++ {
		sp, n, err := trace.DecodeSpan(data[r.Pos:])
		if err != nil {
			return nil, err
		}
		r.Pos += n
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
