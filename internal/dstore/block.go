package dstore

// Sealed immutable blocks: the memtable's rows re-encoded columnarly, one
// file per seal. Integer span fields become varint columns (delta+varint
// under the default encoding — timestamps and sequential IDs delta to
// almost nothing), string fields become LowCardinality dictionary columns,
// and everything that is not naturally columnar — the custom label map,
// attached net metrics, flow and profile side-rows — is persisted in the
// exact trace/transport wire layout. A block file is:
//
//	"DFB" version | header varints | int columns | string columns |
//	per-span rest | flows | profiles | uint32 LE CRC32(all preceding)
//
// The column byte layouts are internal/storage's (Column.WriteTo /
// DecodeColumn — the Fig. 14 axis), but this file reads and writes them
// directly: marshalBlock appends every value's varint into one buffer and
// unmarshalBlock decodes into span fields, with no storage.Column in
// between. Three properties of the layout make compaction a concatenation
// (compact.go) and are checked on every read:
//
//   - a delta column restarts at 0, so appending block B's column to A's
//     only changes B's first delta (B₀ becomes B₀ − A_last);
//   - a dictionary lists its values in first-appearance order, each once,
//     none unused, so A++B's dictionary is A's followed by B's new values;
//   - columns carry no length prefix, every varint is minimal and every
//     value fits its field, so a block image is a pure function of its
//     rows: decode then encode reproduces the bytes.
//
// unmarshalBlock therefore rejects images that a different encoder could
// have produced for the same rows, not just images it cannot read.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

const blockVersion = 1

var blockMagic = [3]byte{'D', 'F', 'B'}

// blockName returns the block filename covering a WAL sequence range.
func blockName(walFirst, walLast uint64) string {
	return fmt.Sprintf("block-%08d-%08d.blk", walFirst, walLast)
}

// parseBlockName extracts the covered WAL range from a block filename.
func parseBlockName(name string) (walFirst, walLast uint64, ok bool) {
	if n, err := fmt.Sscanf(name, "block-%d-%d.blk", &walFirst, &walLast); n == 2 && err == nil {
		return walFirst, walLast, true
	}
	return 0, 0, false
}

// blockMeta is the header every block carries: its WAL coverage (which
// segments it makes deletable), row counts, the span time range (the zone
// map retention and scans prune on), and the column encoding.
type blockMeta struct {
	walFirst, walLast uint64
	nSpans            int
	nFlows            int
	nProfiles         int
	minNS, maxNS      int64
	enc               BlockEncoding
}

// intRange is the span of values an integer column's field can hold;
// anything outside it would be truncated on decode and re-encode
// differently, so reads reject it.
type intRange struct{ lo, hi int64 }

var (
	anyInt = intRange{math.MinInt64, math.MaxInt64} // 64-bit fields, signed or not
	u32    = intRange{0, math.MaxUint32}
	u16    = intRange{0, math.MaxUint16}
	u8     = intRange{0, math.MaxUint8}
	i32    = intRange{math.MinInt32, math.MaxInt32}
)

// spanIntCols defines the integer columns of a block's span section, in
// fixed serialization order. Columns decode in this order, so start_ns is
// applied before dur_ns reconstructs EndTime from it.
var spanIntCols = []struct {
	name string
	intRange
	get func(sp *trace.Span) int64
	set func(sp *trace.Span, v int64)
}{
	{"span_id", anyInt, func(sp *trace.Span) int64 { return int64(sp.ID) }, func(sp *trace.Span, v int64) { sp.ID = trace.SpanID(v) }},
	{"start_ns", anyInt, func(sp *trace.Span) int64 { return sp.StartTime.UnixNano() }, func(sp *trace.Span, v int64) { sp.StartTime = time.Unix(0, v).UTC() }},
	{"dur_ns", anyInt, func(sp *trace.Span) int64 { return int64(sp.EndTime.Sub(sp.StartTime)) }, func(sp *trace.Span, v int64) { sp.EndTime = sp.StartTime.Add(time.Duration(v)) }},
	{"systrace_id", anyInt, func(sp *trace.Span) int64 { return int64(sp.SysTraceID) }, func(sp *trace.Span, v int64) { sp.SysTraceID = trace.SysTraceID(v) }},
	{"pseudo_thread", anyInt, func(sp *trace.Span) int64 { return int64(sp.PseudoThreadID) }, func(sp *trace.Span, v int64) { sp.PseudoThreadID = uint64(v) }},
	{"req_tcp_seq", u32, func(sp *trace.Span) int64 { return int64(sp.ReqTCPSeq) }, func(sp *trace.Span, v int64) { sp.ReqTCPSeq = uint32(v) }},
	{"resp_tcp_seq", u32, func(sp *trace.Span) int64 { return int64(sp.RespTCPSeq) }, func(sp *trace.Span, v int64) { sp.RespTCPSeq = uint32(v) }},
	{"pid", u32, func(sp *trace.Span) int64 { return int64(sp.PID) }, func(sp *trace.Span, v int64) { sp.PID = uint32(v) }},
	{"tid", u32, func(sp *trace.Span) int64 { return int64(sp.TID) }, func(sp *trace.Span, v int64) { sp.TID = uint32(v) }},
	{"coroutine", anyInt, func(sp *trace.Span) int64 { return int64(sp.CoroutineID) }, func(sp *trace.Span, v int64) { sp.CoroutineID = uint64(v) }},
	{"socket", anyInt, func(sp *trace.Span) int64 { return int64(sp.Socket) }, func(sp *trace.Span, v int64) { sp.Socket = trace.SocketID(v) }},
	{"src_ip", u32, func(sp *trace.Span) int64 { return int64(sp.Flow.SrcIP) }, func(sp *trace.Span, v int64) { sp.Flow.SrcIP = trace.IP(v) }},
	{"dst_ip", u32, func(sp *trace.Span) int64 { return int64(sp.Flow.DstIP) }, func(sp *trace.Span, v int64) { sp.Flow.DstIP = trace.IP(v) }},
	{"src_port", u16, func(sp *trace.Span) int64 { return int64(sp.Flow.SrcPort) }, func(sp *trace.Span, v int64) { sp.Flow.SrcPort = uint16(v) }},
	{"dst_port", u16, func(sp *trace.Span) int64 { return int64(sp.Flow.DstPort) }, func(sp *trace.Span, v int64) { sp.Flow.DstPort = uint16(v) }},
	{"l4_proto", u8, func(sp *trace.Span) int64 { return int64(sp.Flow.Proto) }, func(sp *trace.Span, v int64) { sp.Flow.Proto = trace.L4Proto(v) }},
	{"l7", u8, func(sp *trace.Span) int64 { return int64(sp.L7) }, func(sp *trace.Span, v int64) { sp.L7 = trace.L7Proto(v) }},
	{"source", u8, func(sp *trace.Span) int64 { return int64(sp.Source) }, func(sp *trace.Span, v int64) { sp.Source = trace.Source(v) }},
	{"tap_side", u8, func(sp *trace.Span) int64 { return int64(sp.TapSide) }, func(sp *trace.Span, v int64) { sp.TapSide = trace.TapSide(v) }},
	{"response_code", i32, func(sp *trace.Span) int64 { return int64(sp.ResponseCode) }, func(sp *trace.Span, v int64) { sp.ResponseCode = int32(v) }},
	{"vpc", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.VPCID) }, func(sp *trace.Span, v int64) { sp.Resource.VPCID = int32(v) }},
	{"ip", u32, func(sp *trace.Span) int64 { return int64(sp.Resource.IP) }, func(sp *trace.Span, v int64) { sp.Resource.IP = trace.IP(v) }},
	{"pod", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.PodID) }, func(sp *trace.Span, v int64) { sp.Resource.PodID = int32(v) }},
	{"node", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.NodeID) }, func(sp *trace.Span, v int64) { sp.Resource.NodeID = int32(v) }},
	{"service", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.ServiceID) }, func(sp *trace.Span, v int64) { sp.Resource.ServiceID = int32(v) }},
	{"namespace", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.NSID) }, func(sp *trace.Span, v int64) { sp.Resource.NSID = int32(v) }},
	{"region", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.RegionID) }, func(sp *trace.Span, v int64) { sp.Resource.RegionID = int32(v) }},
	{"az", i32, func(sp *trace.Span) int64 { return int64(sp.Resource.AZID) }, func(sp *trace.Span, v int64) { sp.Resource.AZID = int32(v) }},
	{"parent_id", anyInt, func(sp *trace.Span) int64 { return int64(sp.ParentID) }, func(sp *trace.Span, v int64) { sp.ParentID = trace.SpanID(v) }},
}

// startNSCol is start_ns's position in spanIntCols: the column whose
// values the header's time range summarizes.
const startNSCol = 1

// spanStrCols defines the string columns, in fixed order.
var spanStrCols = []struct {
	name string
	get  func(sp *trace.Span) string
	set  func(sp *trace.Span, v string)
}{
	{"x_request_id", func(sp *trace.Span) string { return sp.XRequestID }, func(sp *trace.Span, v string) { sp.XRequestID = v }},
	{"trace_id", func(sp *trace.Span) string { return sp.TraceID }, func(sp *trace.Span, v string) { sp.TraceID = v }},
	{"span_ref", func(sp *trace.Span) string { return sp.SpanRef }, func(sp *trace.Span, v string) { sp.SpanRef = v }},
	{"parent_span_ref", func(sp *trace.Span) string { return sp.ParentSpanRef }, func(sp *trace.Span, v string) { sp.ParentSpanRef = v }},
	{"process", func(sp *trace.Span) string { return sp.ProcessName }, func(sp *trace.Span, v string) { sp.ProcessName = v }},
	{"host", func(sp *trace.Span) string { return sp.HostName }, func(sp *trace.Span, v string) { sp.HostName = v }},
	{"request_type", func(sp *trace.Span) string { return sp.RequestType }, func(sp *trace.Span, v string) { sp.RequestType = v }},
	{"request_resource", func(sp *trace.Span) string { return sp.RequestResource }, func(sp *trace.Span, v string) { sp.RequestResource = v }},
	{"response_status", func(sp *trace.Span) string { return sp.ResponseStatus }, func(sp *trace.Span, v string) { sp.ResponseStatus = v }},
}

// Smallest possible encodings of one row of each kind, for bounding the
// allocations a header's row counts can ask for: a span is at least one
// byte per column plus an empty custom map and seven net-metric varints;
// the flow and profile figures count their fixed fields the same way.
var (
	minSpanBytes    = uint64(len(spanIntCols) + len(spanStrCols) + 1 + 7)
	minFlowBytes    = uint64(17)
	minProfileBytes = uint64(15)
)

// spanTimeRange returns the min/max StartTime over rows (zeros when empty).
func spanTimeRange(spans []*trace.Span) (minNS, maxNS int64) {
	for i, sp := range spans {
		ns := sp.StartTime.UnixNano()
		if i == 0 || ns < minNS {
			minNS = ns
		}
		if i == 0 || ns > maxNS {
			maxNS = ns
		}
	}
	return minNS, maxNS
}

// appendBlockHeader appends the magic, version and header varints.
func appendBlockHeader(buf []byte, m blockMeta) []byte {
	buf = append(buf, blockMagic[:]...)
	buf = append(buf, blockVersion)
	buf = binary.AppendUvarint(buf, m.walFirst)
	buf = binary.AppendUvarint(buf, m.walLast)
	buf = binary.AppendUvarint(buf, uint64(m.nSpans))
	buf = binary.AppendUvarint(buf, uint64(m.nFlows))
	buf = binary.AppendUvarint(buf, uint64(m.nProfiles))
	buf = binary.AppendVarint(buf, m.minNS)
	buf = binary.AppendVarint(buf, m.maxNS)
	return append(buf, byte(m.enc))
}

// appendBlockCRC seals an image with the CRC32 of everything before it.
func appendBlockCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// marshalBlock serializes rows into a block image covering the given WAL
// sequence range: one pass per column, every varint appended straight to
// the image.
func marshalBlock(walFirst, walLast uint64, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample, enc BlockEncoding) []byte {
	minNS, maxNS := spanTimeRange(spans)
	buf := make([]byte, 0, 64+96*len(spans)+64*len(flows)+160*len(profiles))
	buf = appendBlockHeader(buf, blockMeta{
		walFirst: walFirst, walLast: walLast,
		nSpans: len(spans), nFlows: len(flows), nProfiles: len(profiles),
		minNS: minNS, maxNS: maxNS, enc: enc,
	})

	for c := range spanIntCols {
		get := spanIntCols[c].get
		prev := int64(0) // stays 0 under the plain encodings
		for _, sp := range spans {
			v := get(sp)
			buf = binary.AppendVarint(buf, v-prev)
			if enc == EncDelta {
				prev = v
			}
		}
	}
	if enc == EncDirect {
		for c := range spanStrCols {
			get := spanStrCols[c].get
			for _, sp := range spans {
				buf = trace.AppendString(buf, get(sp))
			}
		}
	} else {
		ids := make(map[string]uint32)
		var values []string
		indexes := make([]uint32, len(spans))
		for c := range spanStrCols {
			get := spanStrCols[c].get
			clear(ids)
			values = values[:0]
			for i, sp := range spans {
				s := get(sp)
				if i > 0 && s == values[indexes[i-1]] { // runs are common; skip the hash
					indexes[i] = indexes[i-1]
					continue
				}
				id, ok := ids[s]
				if !ok {
					id = uint32(len(values))
					ids[s] = id
					values = append(values, s)
				}
				indexes[i] = id
			}
			buf = binary.AppendUvarint(buf, uint64(len(values)))
			for _, s := range values {
				buf = trace.AppendString(buf, s)
			}
			for _, id := range indexes {
				buf = binary.AppendUvarint(buf, uint64(id))
			}
		}
	}
	for _, sp := range spans {
		buf = trace.AppendCustom(buf, sp.Custom)
		buf = trace.AppendNetMetrics(buf, sp.Net)
	}
	for i := range flows {
		buf = transport.AppendFlowSample(buf, &flows[i])
	}
	for i := range profiles {
		buf = transport.AppendProfileSample(buf, &profiles[i])
	}
	return appendBlockCRC(buf)
}

// openBlock verifies an image's magic, version and CRC and parses its
// header, returning a strict cursor over the body (the image minus its CRC
// tail) positioned at the first column.
func openBlock(data []byte) (blockMeta, trace.WireReader, error) {
	var meta blockMeta
	var r trace.WireReader
	if len(data) < 4+4 || [3]byte(data[:3]) != blockMagic {
		return meta, r, fmt.Errorf("dstore: not a block file (%d bytes)", len(data))
	}
	if data[3] != blockVersion {
		return meta, r, fmt.Errorf("dstore: unsupported block version %d", data[3])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return meta, r, fmt.Errorf("dstore: block CRC mismatch")
	}

	r = trace.WireReader{Data: body, Pos: 4, Strict: true}
	meta.walFirst = r.Uvarint()
	meta.walLast = r.Uvarint()
	nSpans := r.Uvarint()
	nFlows := r.Uvarint()
	nProfiles := r.Uvarint()
	meta.minNS = r.Varint()
	meta.maxNS = r.Varint()
	meta.enc = BlockEncoding(r.Byte())
	if r.Err != nil {
		return meta, r, fmt.Errorf("dstore: block header: %w", r.Err)
	}
	if meta.enc > EncLowCard {
		return meta, r, fmt.Errorf("dstore: unknown block encoding %d", meta.enc)
	}
	// Every row takes a known minimum of bytes, so counts the body cannot
	// hold are rejected before anything is allocated on their say-so.
	room := uint64(len(body))
	if nSpans > room || nFlows > room || nProfiles > room ||
		nSpans*minSpanBytes+nFlows*minFlowBytes+nProfiles*minProfileBytes > room {
		return meta, r, fmt.Errorf("dstore: block claims impossible row counts (%d/%d/%d in %d bytes)",
			nSpans, nFlows, nProfiles, len(body))
	}
	if nSpans == 0 && (meta.minNS != 0 || meta.maxNS != 0) {
		return meta, r, fmt.Errorf("dstore: block header: time range [%d,%d] over no spans", meta.minNS, meta.maxNS)
	}
	meta.nSpans, meta.nFlows, meta.nProfiles = int(nSpans), int(nFlows), int(nProfiles)
	return meta, r, nil
}

// unmarshalBlock verifies and decodes a block image. Spans come back in
// one slab per block and dictionary strings as views of one string per
// column, so a decoded block costs a handful of allocations rather than
// several per row.
func unmarshalBlock(data []byte) (blockMeta, []*trace.Span, []transport.FlowSample, []profiling.Sample, error) {
	meta, r, err := openBlock(data)
	if err != nil {
		return meta, nil, nil, nil, err
	}
	fail := func(what string, err error) (blockMeta, []*trace.Span, []transport.FlowSample, []profiling.Sample, error) {
		return meta, nil, nil, nil, fmt.Errorf("dstore: block %s: %w", what, err)
	}

	slab := make([]trace.Span, meta.nSpans)
	for c := range spanIntCols {
		def := &spanIntCols[c]
		v := int64(0)
		for i := range slab {
			d := r.Varint()
			if meta.enc == EncDelta {
				v += d
			} else {
				v = d
			}
			if v < def.lo || v > def.hi {
				r.Fail("value outside its field")
			}
			def.set(&slab[i], v)
		}
		if r.Err != nil {
			return fail("column "+def.name, r.Err)
		}
	}
	var dict dictReader
	for c := range spanStrCols {
		def := &spanStrCols[c]
		if meta.enc == EncDirect {
			for i := range slab {
				def.set(&slab[i], r.String())
			}
		} else {
			values := dict.read(&r, len(slab))
			if r.Err == nil {
				for i, id := range dict.indexes {
					def.set(&slab[i], values[id])
				}
			}
		}
		if r.Err != nil {
			return fail("column "+def.name, r.Err)
		}
	}
	spans := make([]*trace.Span, len(slab))
	for i := range slab {
		sp := &slab[i]
		sp.Custom = r.Custom()
		sp.Net = r.NetMetrics()
		spans[i] = sp
	}
	var flows []transport.FlowSample
	if meta.nFlows > 0 {
		flows = make([]transport.FlowSample, 0, meta.nFlows)
	}
	for i := 0; i < meta.nFlows && r.Err == nil; i++ {
		flows = append(flows, transport.DecodeFlowSample(&r))
	}
	var profiles []profiling.Sample
	if meta.nProfiles > 0 {
		profiles = make([]profiling.Sample, 0, meta.nProfiles)
	}
	for i := 0; i < meta.nProfiles && r.Err == nil; i++ {
		profiles = append(profiles, transport.DecodeProfileSample(&r))
	}
	if r.Err != nil {
		return fail("rows", r.Err)
	}
	if r.Pos != len(r.Data) {
		return fail("rows", fmt.Errorf("%d trailing bytes", len(r.Data)-r.Pos))
	}
	if minNS, maxNS := spanTimeRange(spans); minNS != meta.minNS || maxNS != meta.maxNS {
		return fail("header", fmt.Errorf("time range [%d,%d] but spans cover [%d,%d]", meta.minNS, meta.maxNS, minNS, maxNS))
	}
	return meta, spans, flows, profiles, nil
}

// EncodeBlock serializes rows into a standalone block image under enc —
// the probe behind the `dfbench storage` bytes/span sweep. The WAL range
// is zero: the image is for measurement and round-trip, not for a shard
// directory.
func EncodeBlock(spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample, enc BlockEncoding) []byte {
	return marshalBlock(0, 0, spans, flows, profiles, enc)
}

// DecodeBlock verifies and decodes a block image produced by EncodeBlock
// (or read from a shard directory).
func DecodeBlock(data []byte) ([]*trace.Span, []transport.FlowSample, []profiling.Sample, error) {
	_, spans, flows, profiles, err := unmarshalBlock(data)
	return spans, flows, profiles, err
}

// MergeBlocks concatenates block images of one encoding, in order, into
// the image EncodeBlock would produce for their concatenated rows, without
// decoding a row — compaction's merge step, exported beside EncodeBlock and
// DecodeBlock for `dfbench storage` to time.
func MergeBlocks(images ...[]byte) ([]byte, error) {
	merged, _, err := mergeBlocks(images...)
	return merged, err
}
