package trace

// Wire serialization for spans — the row format agents put on the wire
// (paper §3.4: agents ship compact int-tagged rows; smart encoding means
// "agents send only ints" for every resource tag). All integers are
// varint/uvarint encoded so the common case — small IDs, zero tags — costs
// one byte per field; strings are length-prefixed. The batch envelope
// around rows lives in internal/transport; this file owns the per-span
// layout so the data model and its serialization evolve together.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// AppendSpan appends sp's wire encoding to buf and returns the extended
// slice. DecodeSpan reverses it exactly (see the transport round-trip
// property test).
func AppendSpan(buf []byte, sp *Span) []byte {
	buf = binary.AppendUvarint(buf, uint64(sp.ID))
	buf = binary.AppendUvarint(buf, uint64(sp.SysTraceID))
	buf = binary.AppendUvarint(buf, sp.PseudoThreadID)
	buf = AppendString(buf, sp.XRequestID)
	buf = binary.AppendUvarint(buf, uint64(sp.ReqTCPSeq))
	buf = binary.AppendUvarint(buf, uint64(sp.RespTCPSeq))
	buf = AppendString(buf, sp.TraceID)
	buf = AppendString(buf, sp.SpanRef)
	buf = AppendString(buf, sp.ParentSpanRef)
	buf = binary.AppendUvarint(buf, uint64(sp.PID))
	buf = binary.AppendUvarint(buf, uint64(sp.TID))
	buf = binary.AppendUvarint(buf, sp.CoroutineID)
	buf = AppendString(buf, sp.ProcessName)
	buf = binary.AppendUvarint(buf, uint64(sp.Socket))
	buf = AppendFiveTuple(buf, sp.Flow)
	buf = append(buf, byte(sp.L7), byte(sp.Source), byte(sp.TapSide))
	buf = AppendString(buf, sp.HostName)
	startNS := sp.StartTime.UnixNano()
	buf = binary.AppendVarint(buf, startNS)
	buf = binary.AppendVarint(buf, sp.EndTime.UnixNano()-startNS)
	buf = AppendString(buf, sp.RequestType)
	buf = AppendString(buf, sp.RequestResource)
	buf = binary.AppendVarint(buf, int64(sp.ResponseCode))
	buf = AppendString(buf, sp.ResponseStatus)
	buf = AppendResourceTags(buf, sp.Resource)
	buf = AppendCustom(buf, sp.Custom)
	buf = AppendNetMetrics(buf, sp.Net)
	buf = binary.AppendUvarint(buf, uint64(sp.ParentID))
	return buf
}

// DecodeSpan decodes one span from the front of data, returning the span
// and the number of bytes consumed.
func DecodeSpan(data []byte) (*Span, int, error) {
	r := WireReader{Data: data}
	sp := &Span{}
	sp.ID = SpanID(r.Uvarint())
	sp.SysTraceID = SysTraceID(r.Uvarint())
	sp.PseudoThreadID = r.Uvarint()
	sp.XRequestID = r.String()
	sp.ReqTCPSeq = uint32(r.Uvarint())
	sp.RespTCPSeq = uint32(r.Uvarint())
	sp.TraceID = r.String()
	sp.SpanRef = r.String()
	sp.ParentSpanRef = r.String()
	sp.PID = uint32(r.Uvarint())
	sp.TID = uint32(r.Uvarint())
	sp.CoroutineID = r.Uvarint()
	sp.ProcessName = r.String()
	sp.Socket = SocketID(r.Uvarint())
	sp.Flow = r.FiveTuple()
	sp.L7 = L7Proto(r.Byte())
	sp.Source = Source(r.Byte())
	sp.TapSide = TapSide(r.Byte())
	sp.HostName = r.String()
	startNS := r.Varint()
	durNS := r.Varint()
	sp.StartTime = time.Unix(0, startNS).UTC()
	sp.EndTime = time.Unix(0, startNS+durNS).UTC()
	sp.RequestType = r.String()
	sp.RequestResource = r.String()
	sp.ResponseCode = int32(r.Varint())
	sp.ResponseStatus = r.String()
	sp.Resource = r.ResourceTags()
	sp.Custom = r.Custom()
	sp.Net = r.NetMetrics()
	sp.ParentID = SpanID(r.Uvarint())
	if r.Err != nil {
		return nil, 0, r.Err
	}
	return sp, r.Pos, nil
}

// AppendFiveTuple appends a flow tuple's wire encoding.
func AppendFiveTuple(buf []byte, ft FiveTuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(ft.SrcIP))
	buf = binary.AppendUvarint(buf, uint64(ft.DstIP))
	buf = binary.AppendUvarint(buf, uint64(ft.SrcPort))
	buf = binary.AppendUvarint(buf, uint64(ft.DstPort))
	return append(buf, byte(ft.Proto))
}

// AppendResourceTags appends the smart-encoded tag block: eight small
// integers, which is the entirety of what an agent says about where a row
// came from (VPC + IP phase 1; the rest are zero until the server enriches).
func AppendResourceTags(buf []byte, rt ResourceTags) []byte {
	buf = binary.AppendVarint(buf, int64(rt.VPCID))
	buf = binary.AppendUvarint(buf, uint64(rt.IP))
	buf = binary.AppendVarint(buf, int64(rt.PodID))
	buf = binary.AppendVarint(buf, int64(rt.NodeID))
	buf = binary.AppendVarint(buf, int64(rt.ServiceID))
	buf = binary.AppendVarint(buf, int64(rt.NSID))
	buf = binary.AppendVarint(buf, int64(rt.RegionID))
	return binary.AppendVarint(buf, int64(rt.AZID))
}

// AppendCustom appends a self-defined label map in sorted-key order, so
// identical maps always produce identical bytes. Exported because sealed
// storage blocks (internal/dstore) persist the span's non-columnar rest —
// custom labels and net metrics — in this exact wire layout.
func AppendCustom(buf []byte, m map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	if len(m) == 0 {
		return buf
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic bytes for identical spans
	for _, k := range keys {
		buf = AppendString(buf, k)
		buf = AppendString(buf, m[k])
	}
	return buf
}

// AppendNetMetrics appends a span's attached network metrics block.
func AppendNetMetrics(buf []byte, nm NetMetrics) []byte {
	buf = binary.AppendUvarint(buf, uint64(nm.Retransmissions))
	buf = binary.AppendUvarint(buf, uint64(nm.Resets))
	buf = binary.AppendUvarint(buf, uint64(nm.ZeroWindows))
	buf = binary.AppendVarint(buf, int64(nm.RTT))
	buf = binary.AppendUvarint(buf, nm.BytesSent)
	buf = binary.AppendUvarint(buf, nm.BytesReceived)
	return binary.AppendUvarint(buf, uint64(nm.ARPRequests))
}

// AppendString appends one length-prefixed string, the form every string
// on the wire and in a sealed block takes (WireReader.String's inverse).
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// WireReader is a cursor over wire-encoded bytes. Reads after an error
// return zero values; the first error sticks in Err, so callers check once
// at the end of a record instead of after every field.
type WireReader struct {
	Data []byte
	Pos  int
	Err  error

	// Strict rejects every encoding the Append* functions would not have
	// produced: padded varints, values wider than the field they land in,
	// custom label keys out of order. Sealed storage blocks
	// (internal/dstore) are read strictly, so an accepted image re-encodes
	// to the same bytes and compaction may splice column bytes verbatim.
	// The agent→server wire is read leniently.
	Strict bool
	// Discard validates and advances without building anything: strings
	// come back empty and Custom returns nil, so a record can be walked to
	// find where it ends without allocating.
	Discard bool
}

func (r *WireReader) fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("trace: wire decode: %s at offset %d", what, r.Pos)
	}
}

// Fail records a decode error (what went wrong, as a phrase) at the current
// position; higher-level codecs (internal/transport, internal/dstore) use
// it when a composed record is inconsistent.
func (r *WireReader) Fail(what string) { r.fail(what) }

// Uvarint reads one unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	// One-byte values dominate every column and row this cursor walks.
	if p := r.Pos; p < len(r.Data) && r.Data[p] < 0x80 {
		r.Pos = p + 1
		return uint64(r.Data[p])
	}
	v, n := binary.Uvarint(r.Data[r.Pos:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	if r.Strict && r.Data[r.Pos+n-1] == 0 {
		r.fail("padded uvarint")
		return 0
	}
	r.Pos += n
	return v
}

// Varint reads one signed (zigzag) varint.
func (r *WireReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Uint32 reads an unsigned varint destined for a 32-bit field.
func (r *WireReader) Uint32() uint32 { return uint32(r.narrow(r.Uvarint(), 32)) }

// Uint16 reads an unsigned varint destined for a 16-bit field.
func (r *WireReader) Uint16() uint16 { return uint16(r.narrow(r.Uvarint(), 16)) }

// Int32 reads a signed varint destined for a 32-bit field.
func (r *WireReader) Int32() int32 {
	v := r.Varint()
	if r.Strict && v != int64(int32(v)) {
		r.fail("value wider than its 32-bit field")
	}
	return int32(v)
}

// narrow fails a strict read whose value does not fit in bits; lenient
// reads truncate, as the wire always has.
func (r *WireReader) narrow(v uint64, bits uint) uint64 {
	if r.Strict && v>>bits != 0 {
		r.fail("value wider than its field")
	}
	return v
}

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if r.Pos >= len(r.Data) {
		r.fail("truncated byte")
		return 0
	}
	b := r.Data[r.Pos]
	r.Pos++
	return b
}

// Bytes reads one length-prefixed string as a view into Data.
func (r *WireReader) Bytes() []byte {
	n := r.Uvarint()
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.Data)-r.Pos) {
		r.fail("truncated string")
		return nil
	}
	b := r.Data[r.Pos : r.Pos+int(n)]
	r.Pos += int(n)
	return b
}

// String reads one length-prefixed string.
func (r *WireReader) String() string {
	b := r.Bytes()
	if r.Discard {
		return ""
	}
	return string(b)
}

// FiveTuple reads a flow tuple.
func (r *WireReader) FiveTuple() FiveTuple {
	return FiveTuple{
		SrcIP:   IP(r.Uint32()),
		DstIP:   IP(r.Uint32()),
		SrcPort: r.Uint16(),
		DstPort: r.Uint16(),
		Proto:   L4Proto(r.Byte()),
	}
}

// ResourceTags reads a smart-encoded tag block.
func (r *WireReader) ResourceTags() ResourceTags {
	return ResourceTags{
		VPCID:     r.Int32(),
		IP:        IP(r.Uint32()),
		PodID:     r.Int32(),
		NodeID:    r.Int32(),
		ServiceID: r.Int32(),
		NSID:      r.Int32(),
		RegionID:  r.Int32(),
		AZID:      r.Int32(),
	}
}

// Custom reads a self-defined label map (AppendCustom's inverse); an empty
// map decodes as nil, mirroring what agents ship.
func (r *WireReader) Custom() map[string]string {
	n := r.Uvarint()
	if n == 0 || r.Err != nil {
		return nil
	}
	if n > uint64(len(r.Data)-r.Pos) { // each entry takes ≥2 bytes
		r.fail("truncated custom map")
		return nil
	}
	var m map[string]string
	if !r.Discard {
		m = make(map[string]string, n)
	}
	var prev []byte
	for i := uint64(0); i < n && r.Err == nil; i++ {
		k := r.Bytes()
		if r.Strict && i > 0 && bytes.Compare(prev, k) >= 0 {
			r.fail("custom label keys out of order")
		}
		prev = k
		v := r.Bytes()
		if m != nil {
			m[string(k)] = string(v)
		}
	}
	return m
}

// NetMetrics reads an attached network metrics block.
func (r *WireReader) NetMetrics() NetMetrics {
	return NetMetrics{
		Retransmissions: r.Uint32(),
		Resets:          r.Uint32(),
		ZeroWindows:     r.Uint32(),
		RTT:             time.Duration(r.Varint()),
		BytesSent:       r.Uvarint(),
		BytesReceived:   r.Uvarint(),
		ARPRequests:     r.Uint32(),
	}
}
