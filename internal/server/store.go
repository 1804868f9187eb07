package server

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"deepflow/internal/selfmon"
	"deepflow/internal/storage"
	"deepflow/internal/trace"
)

// Encoding selects how tag data is written to the columnar store — the
// variable the Fig. 14 experiment sweeps.
type Encoding uint8

// Tag encodings.
const (
	// EncodingSmart stores resource tags as integers resolved at query
	// time (DeepFlow's smart-encoding).
	EncodingSmart Encoding = iota
	// EncodingDirect resolves tags to strings at ingest and stores them
	// raw ("direct storing").
	EncodingDirect
	// EncodingLowCard resolves tags to strings and stores them in
	// dictionary-encoded columns (ClickHouse LowCardinality).
	EncodingLowCard
)

func (e Encoding) String() string {
	switch e {
	case EncodingSmart:
		return "smart-encoding"
	case EncodingDirect:
		return "direct"
	case EncodingLowCard:
		return "low-cardinality"
	default:
		return "encoding?"
	}
}

// resourceTagNames are the per-span resource tag columns.
var resourceTagNames = []string{"pod", "node", "service", "namespace", "region", "az"}

// SpanStore holds ingested spans: an in-memory span set with the inverted
// indexes Algorithm 1 queries, plus the columnar table that accounts for
// storage resources under the configured encoding. Each sharded-ingest
// worker owns one SpanStore partition; the store's own mutex makes
// queries safe against a concurrently inserting worker.
type SpanStore struct {
	Encoding Encoding
	reg      *ResourceRegistry

	mu    sync.RWMutex
	spans []*trace.Span        // dflint:guardedby mu
	byID  map[trace.SpanID]int // dflint:guardedby mu

	// Inverted indexes for the iterative span search.
	bySysTrace map[trace.SysTraceID][]int // dflint:guardedby mu
	byPseudo   map[uint64][]int           // dflint:guardedby mu
	byXReq     map[string][]int           // dflint:guardedby mu
	byTCPSeq   map[uint32][]int           // dflint:guardedby mu
	byTraceID  map[string][]int           // dflint:guardedby mu

	// timeIdx orders rows by (start time, span ID) for span-list queries.
	timeIdx   []int // dflint:guardedby mu
	timeDirty bool  // dflint:guardedby mu

	wide  int
	table *storage.Table
	cols  []storage.Column // table's columns in schema order, resolved once for writeRow

	// Self-monitoring handles (nil when the store is not instrumented).
	mAssembleIters *selfmon.Histogram
	mAssembleSpans *selfmon.Histogram
	ruleHits       []*selfmon.Counter
	// mAssocExpand counts index rows contributed per association key during
	// the iterative search, in assocNames order.
	mAssocExpand []*selfmon.Counter
}

// NewSpanStoreWide creates a store — one partition of a sharded server, or
// the bare store Fig. 14 inserts into — that additionally materializes
// `wide` derived tag columns (pod labels, cloud attributes, …) for the
// direct and low-cardinality encodings. Smart encoding stores none of them:
// they are derived from the integer resource tags at query time, which is
// exactly the saving Fig. 14 measures ("up to 100 tags might be related to
// a single trace").
func NewSpanStoreWide(enc Encoding, reg *ResourceRegistry, wide int) *SpanStore {
	s := &SpanStore{
		Encoding:   enc,
		reg:        reg,
		byID:       make(map[trace.SpanID]int),
		bySysTrace: make(map[trace.SysTraceID][]int),
		byPseudo:   make(map[uint64][]int),
		byXReq:     make(map[string][]int),
		byTCPSeq:   make(map[uint32][]int),
		byTraceID:  make(map[string][]int),
	}
	schema := []storage.ColumnDef{
		{Name: "span_id", Type: storage.TypeInt64},
		{Name: "start_ns", Type: storage.TypeInt64},
		{Name: "duration_ns", Type: storage.TypeInt64},
		{Name: "systrace_id", Type: storage.TypeInt64},
		{Name: "req_tcp_seq", Type: storage.TypeInt64},
		{Name: "resp_tcp_seq", Type: storage.TypeInt64},
		{Name: "response_code", Type: storage.TypeInt64},
		{Name: "x_request_id", Type: storage.TypeString},
		{Name: "trace_id", Type: storage.TypeString},
		{Name: "l7", Type: storage.TypeInt64},
		{Name: "tap_side", Type: storage.TypeInt64},
	}
	tagType := storage.TypeInt32
	switch enc {
	case EncodingDirect:
		tagType = storage.TypeString
	case EncodingLowCard:
		tagType = storage.TypeLowCardinality
	}
	for _, name := range resourceTagNames {
		schema = append(schema, storage.ColumnDef{Name: "tag_" + name, Type: tagType})
	}
	if enc != EncodingSmart {
		for i := 0; i < wide; i++ {
			schema = append(schema, storage.ColumnDef{Name: "tag_w" + strconv.Itoa(i), Type: tagType})
		}
	}
	s.wide = wide
	s.table = storage.NewTable("spans_"+enc.String(), schema)
	s.cols = s.table.Columns()
	return s
}

// instrumentStores registers the partitioned span stores' self-monitoring
// instruments: storage resource gauges per encoding (summed across the
// partitions — the queries they answer are partition-merged too), the
// Algorithm-1 iterations-to-fixed-point histogram, and per-rule parent-
// selection hit counters (pre-resolved so the assembly hot path pays one
// atomic add per decision). The assembly instruments are shared: every
// partition observes into the same histogram and counters, which the
// selfmon registry's get-or-create semantics would collapse to anyway.
func instrumentStores(mon *selfmon.Registry, stores []*SpanStore) {
	enc := selfmon.Tag{K: "encoding", V: stores[0].Encoding.String()}
	sum := func(per func(*SpanStore) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, s := range stores {
				t += per(s)
			}
			return t
		}
	}
	mon.GaugeFunc("deepflow_server_storage_rows",
		sum(func(s *SpanStore) float64 { return float64(s.table.Rows()) }), enc)
	mon.GaugeFunc("deepflow_server_storage_blocks",
		sum(func(s *SpanStore) float64 { return float64(s.table.Blocks()) }), enc)
	mon.GaugeFunc("deepflow_server_storage_mem_bytes",
		sum(func(s *SpanStore) float64 { return float64(s.table.MemBytes()) }), enc)
	mon.GaugeFunc("deepflow_server_storage_disk_bytes",
		sum(func(s *SpanStore) float64 { return float64(s.table.DiskSize()) }), enc)
	iters := mon.Histogram("deepflow_server_assemble_iterations",
		selfmon.LinearBuckets(1, 1, DefaultIterations))
	sizes := mon.Histogram("deepflow_server_assemble_spans",
		selfmon.LinearBuckets(5, 5, 20))
	ruleHits := make([]*selfmon.Counter, len(parentRules))
	for i, r := range parentRules {
		ruleHits[i] = mon.Counter("deepflow_server_parent_rule_hits",
			selfmon.Tag{K: "rule", V: fmt.Sprintf("%02d-%s", r.id, r.name)})
	}
	expand := make([]*selfmon.Counter, len(assocNames))
	for i, n := range assocNames {
		expand[i] = mon.Counter("deepflow_server_assemble_expansions",
			selfmon.Tag{K: "assoc", V: n})
	}
	for _, s := range stores {
		s.mAssembleIters = iters
		s.mAssembleSpans = sizes
		s.ruleHits = ruleHits
		s.mAssocExpand = expand
	}
}

// spanIndexes bundles the inverted-index maps so insertion and the
// retention rebuild share one indexing routine. The maps are the store's
// own (guarded by its mu); an indexes value is only formed and used with
// the lock held.
type spanIndexes struct {
	byID       map[trace.SpanID]int
	bySysTrace map[trace.SysTraceID][]int
	byPseudo   map[uint64][]int
	byXReq     map[string][]int
	byTCPSeq   map[uint32][]int
	byTraceID  map[string][]int
}

// index adds one span at the given row to every applicable inverted index.
func (ix spanIndexes) index(sp *trace.Span, row int) {
	ix.byID[sp.ID] = row
	if sp.SysTraceID != 0 {
		ix.bySysTrace[sp.SysTraceID] = append(ix.bySysTrace[sp.SysTraceID], row)
	}
	if sp.PseudoThreadID != 0 {
		ix.byPseudo[sp.PseudoThreadID] = append(ix.byPseudo[sp.PseudoThreadID], row)
	}
	if sp.XRequestID != "" {
		ix.byXReq[sp.XRequestID] = append(ix.byXReq[sp.XRequestID], row)
	}
	if sp.ReqTCPSeq != 0 || sp.RespTCPSeq != 0 {
		ix.byTCPSeq[sp.ReqTCPSeq] = append(ix.byTCPSeq[sp.ReqTCPSeq], row)
	}
	if sp.TraceID != "" {
		ix.byTraceID[sp.TraceID] = append(ix.byTraceID[sp.TraceID], row)
	}
}

// Insert ingests one span (whose resource tags have been enriched) plus any
// extra custom tags already folded into span.Custom.
func (s *SpanStore) Insert(sp *trace.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := len(s.spans)
	s.spans = append(s.spans, sp)
	spanIndexes{s.byID, s.bySysTrace, s.byPseudo, s.byXReq, s.byTCPSeq, s.byTraceID}.index(sp, row)
	s.timeIdx = append(s.timeIdx, row)
	s.timeDirty = true
	s.writeRow(sp)
}

// writeRow appends sp to the backing columnar table under the store's
// encoding. Split from Insert so retention rebuilds (EvictBefore) can
// re-materialize the table from the surviving spans through the identical
// row path.
func (s *SpanStore) writeRow(sp *trace.Span) {
	// Positional, in NewSpanStoreWide's schema order: eleven fixed columns,
	// the six resource tags, then the wide tags.
	c := s.cols
	c[0].AppendInt(int64(sp.ID))
	c[1].AppendInt(sp.StartTime.UnixNano())
	c[2].AppendInt(int64(sp.Duration()))
	c[3].AppendInt(int64(sp.SysTraceID))
	c[4].AppendInt(int64(sp.ReqTCPSeq))
	c[5].AppendInt(int64(sp.RespTCPSeq))
	c[6].AppendInt(int64(sp.ResponseCode))
	c[7].AppendString(sp.XRequestID)
	c[8].AppendString(sp.TraceID)
	c[9].AppendInt(int64(sp.L7))
	c[10].AppendInt(int64(sp.TapSide))
	tags := c[11:]

	switch s.Encoding {
	case EncodingSmart:
		tags[0].AppendInt(int64(sp.Resource.PodID))
		tags[1].AppendInt(int64(sp.Resource.NodeID))
		tags[2].AppendInt(int64(sp.Resource.ServiceID))
		tags[3].AppendInt(int64(sp.Resource.NSID))
		tags[4].AppendInt(int64(sp.Resource.RegionID))
		tags[5].AppendInt(int64(sp.Resource.AZID))
	default:
		// Direct and LowCardinality both resolve the tag names at
		// ingestion time — extra CPU that smart-encoding avoids — and
		// must materialize every derived tag as a column value.
		d := s.reg.Decode(sp.Resource)
		tags[0].AppendString(d.Pod)
		tags[1].AppendString(d.Node)
		tags[2].AppendString(d.Service)
		tags[3].AppendString(d.Namespace)
		tags[4].AppendString(d.Region)
		tags[5].AppendString(d.AZ)
		for i, wide := range tags[6:] {
			wide.AppendString(d.Service + ":" + strconv.Itoa(i))
		}
	}
	s.table.RowAdded()
}

// EvictBefore drops every span whose StartTime is before cutoff,
// rebuilding the inverted indexes, the time index, and the columnar table
// from the survivors (in their original insertion order, so partition-
// merge determinism is untouched). Returns the number of spans evicted.
// This is the in-memory half of raw-span retention; the durable tier
// evicts at block granularity separately.
func (s *SpanStore) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	keep := make([]*trace.Span, 0, len(s.spans))
	for _, sp := range s.spans {
		if sp.StartTime.Before(cutoff) {
			evicted++
			continue
		}
		keep = append(keep, sp)
	}
	if evicted == 0 {
		return 0
	}
	ix := spanIndexes{
		byID:       make(map[trace.SpanID]int, len(keep)),
		bySysTrace: make(map[trace.SysTraceID][]int),
		byPseudo:   make(map[uint64][]int),
		byXReq:     make(map[string][]int),
		byTCPSeq:   make(map[uint32][]int),
		byTraceID:  make(map[string][]int),
	}
	timeIdx := make([]int, 0, len(keep))
	s.table.Reset()
	for row, sp := range keep {
		ix.index(sp, row)
		timeIdx = append(timeIdx, row)
		s.writeRow(sp)
	}
	s.spans = keep
	s.byID = ix.byID
	s.bySysTrace = ix.bySysTrace
	s.byPseudo = ix.byPseudo
	s.byXReq = ix.byXReq
	s.byTCPSeq = ix.byTCPSeq
	s.byTraceID = ix.byTraceID
	s.timeIdx = timeIdx
	s.timeDirty = true
	return evicted
}

// Len returns the number of stored spans.
func (s *SpanStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.spans)
}

// Span returns a span by ID, or nil.
func (s *SpanStore) Span(id trace.SpanID) *trace.Span {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.spans[row]
}

// MemBytes returns the columnar table's resident size.
func (s *SpanStore) MemBytes() int { return s.table.MemBytes() }

// DiskBytes returns the serialized (on-disk) size of the columnar table.
func (s *SpanStore) DiskBytes() int64 { return s.table.DiskBytes() }

// Table exposes the backing columnar table.
func (s *SpanStore) Table() *storage.Table { return s.table }

// SpanList returns spans with StartTime in [from, to), newest-first (span
// ID descending on ties), capped at limit (0 = unlimited) — the paper's span-list query (Fig. 15).
func (s *SpanStore) SpanList(from, to time.Time, limit int) []*trace.Span {
	s.mu.Lock() // full lock: the query lazily re-sorts the time index
	defer s.mu.Unlock()
	if s.timeDirty {
		// (StartTime, ID) ascending — read backwards below, that is the
		// total order Server.SpanList merges by, so the cut at limit keeps
		// the same spans whichever partitions hold the ones tied at it.
		sort.Slice(s.timeIdx, func(i, j int) bool {
			a, b := s.spans[s.timeIdx[i]], s.spans[s.timeIdx[j]]
			if c := a.StartTime.Compare(b.StartTime); c != 0 {
				return c < 0
			}
			return a.ID < b.ID
		})
		s.timeDirty = false
	}
	fromNS, toNS := from, to
	// Binary search the window bounds.
	lo := sort.Search(len(s.timeIdx), func(i int) bool {
		return !s.spans[s.timeIdx[i]].StartTime.Before(fromNS)
	})
	hi := sort.Search(len(s.timeIdx), func(i int) bool {
		return !s.spans[s.timeIdx[i]].StartTime.Before(toNS)
	})
	var out []*trace.Span
	for i := hi - 1; i >= lo; i-- {
		out = append(out, s.spans[s.timeIdx[i]])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// relatedMasked returns the row IDs sharing any enabled association key
// with sp, implementing the filter expansion of Algorithm 1 (lines 6–10).
//
//dflint:allow lockcheck -- caller holds s.mu: only reached from relatedSpans, under RLock
func (s *SpanStore) relatedMasked(sp *trace.Span, mask AssocMask) []int {
	var rows []int
	if mask&AssocSysTrace != 0 && sp.SysTraceID != 0 {
		rows = append(rows, s.bySysTrace[sp.SysTraceID]...)
		s.countExpand(assocSysTrace, len(s.bySysTrace[sp.SysTraceID]))
	}
	if mask&AssocPseudoThread != 0 && sp.PseudoThreadID != 0 {
		rows = append(rows, s.byPseudo[sp.PseudoThreadID]...)
		s.countExpand(assocPseudoThread, len(s.byPseudo[sp.PseudoThreadID]))
	}
	if mask&AssocXRequestID != 0 && sp.XRequestID != "" {
		rows = append(rows, s.byXReq[sp.XRequestID]...)
		s.countExpand(assocXRequestID, len(s.byXReq[sp.XRequestID]))
	}
	if mask&AssocTCPSeq != 0 && sp.ReqTCPSeq != 0 {
		rows = append(rows, s.byTCPSeq[sp.ReqTCPSeq]...)
		s.countExpand(assocTCPSeq, len(s.byTCPSeq[sp.ReqTCPSeq]))
	}
	if mask&AssocTraceID != 0 && sp.TraceID != "" {
		rows = append(rows, s.byTraceID[sp.TraceID]...)
		s.countExpand(assocTraceID, len(s.byTraceID[sp.TraceID]))
	}
	return rows
}

// assocNames label the expansion counters, indexed by the assoc* constants.
var assocNames = []string{"systrace", "pseudothread", "xrequestid", "tcpseq", "traceid"}

const (
	assocSysTrace = iota
	assocPseudoThread
	assocXRequestID
	assocTCPSeq
	assocTraceID
)

// countExpand records how many index rows one association key contributed
// to a search step (counters are atomic; safe under the read lock).
func (s *SpanStore) countExpand(assoc, n int) {
	if n > 0 && s.mAssocExpand != nil {
		s.mAssocExpand[assoc].Add(uint64(n))
	}
}

// relatedSpans is the cross-partition face of relatedMasked: it returns the
// live spans of this partition sharing any enabled association key with sp
// (which may live in another partition). Callers must dedupe by span ID —
// a span can reach the result through several keys.
func (s *SpanStore) relatedSpans(sp *trace.Span, mask AssocMask) []*trace.Span {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := s.relatedMasked(sp, mask)
	out := make([]*trace.Span, 0, len(rows))
	for _, row := range rows {
		out = append(out, s.spans[row])
	}
	return out
}
