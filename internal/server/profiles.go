package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/selfmon"
	"deepflow/internal/sim"
	"deepflow/internal/storage"
	"deepflow/internal/trace"
)

// ProfileStore holds continuous-profiling samples: the in-memory rows the
// correlation queries walk, plus a columnar table under the same tag
// encoding as the span store — profiles are the third plane to share the
// smart-encoded tag vocabulary, which is the whole point of building them
// on the existing pipeline.
type ProfileStore struct {
	Encoding Encoding
	reg      *ResourceRegistry

	mu      sync.RWMutex
	samples []profiling.Sample // dflint:guardedby mu
	table   *storage.Table
}

// newProfileStorePart creates one partition of a sharded profile store.
func newProfileStorePart(enc Encoding, reg *ResourceRegistry, part string) *ProfileStore {
	schema := []storage.ColumnDef{
		{Name: "first_ns", Type: storage.TypeInt64},
		{Name: "last_ns", Type: storage.TypeInt64},
		{Name: "pid", Type: storage.TypeInt64},
		{Name: "count", Type: storage.TypeInt64},
		{Name: "proc", Type: storage.TypeString},
		{Name: "stack", Type: storage.TypeString},
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
	return &ProfileStore{
		Encoding: enc,
		reg:      reg,
		table:    storage.NewTable("profiles_"+enc.String()+part, schema),
	}
}

// instrumentProfiles registers the partitioned profile stores' storage
// gauges, summed across partitions like the span-store gauges.
func instrumentProfiles(mon *selfmon.Registry, stores []*ProfileStore) {
	enc := selfmon.Tag{K: "encoding", V: stores[0].Encoding.String()}
	sum := func(per func(*ProfileStore) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, s := range stores {
				t += per(s)
			}
			return t
		}
	}
	mon.GaugeFunc("deepflow_server_profile_rows",
		sum(func(s *ProfileStore) float64 { return float64(s.table.Rows()) }), enc)
	mon.GaugeFunc("deepflow_server_profile_mem_bytes",
		sum(func(s *ProfileStore) float64 { return float64(s.table.MemBytes()) }), enc)
}

// Insert stores one enriched sample.
func (s *ProfileStore) Insert(ps profiling.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, ps)
	w := s.table.NewRow().
		Int("first_ns", ps.FirstNS).
		Int("last_ns", ps.LastNS).
		Int("pid", int64(ps.PID)).
		Int("count", int64(ps.Count)).
		Str("proc", ps.ProcName).
		Str("stack", profiling.Fold(ps.Stack))
	switch s.Encoding {
	case EncodingSmart:
		w.Int("tag_pod", int64(ps.Resource.PodID)).
			Int("tag_node", int64(ps.Resource.NodeID)).
			Int("tag_service", int64(ps.Resource.ServiceID)).
			Int("tag_namespace", int64(ps.Resource.NSID)).
			Int("tag_region", int64(ps.Resource.RegionID)).
			Int("tag_az", int64(ps.Resource.AZID))
	default:
		d := s.reg.Decode(ps.Resource)
		w.Str("tag_pod", d.Pod).
			Str("tag_node", d.Node).
			Str("tag_service", d.Service).
			Str("tag_namespace", d.Namespace).
			Str("tag_region", d.Region).
			Str("tag_az", d.AZ)
	}
	w.Commit()
}

// Len returns the number of stored samples.
func (s *ProfileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.samples)
}

// Table exposes the backing columnar table.
func (s *ProfileStore) Table() *storage.Table { return s.table }

// ProfileFilter selects profile samples; name fields are matched after
// query-time tag expansion (smart-encoding's late decode, Fig. 8 ⑧).
type ProfileFilter struct {
	Service string
	Pod     string
	Proc    string
}

func (f ProfileFilter) matches(s *ProfileStore, ps *profiling.Sample) bool {
	if f.Proc != "" && ps.ProcName != f.Proc {
		return false
	}
	if f.Service != "" || f.Pod != "" {
		d := s.reg.Decode(ps.Resource)
		if f.Service != "" && d.Service != f.Service {
			return false
		}
		if f.Pod != "" && d.Pod != f.Pod {
			return false
		}
	}
	return true
}

// Query returns the samples whose hit window [FirstNS, LastNS] overlaps
// [from, to] and that match the filter.
func (s *ProfileStore) Query(from, to time.Time, f ProfileFilter) []profiling.Sample {
	fromNS := from.Sub(sim.Epoch).Nanoseconds()
	toNS := to.Sub(sim.Epoch).Nanoseconds()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []profiling.Sample
	for i := range s.samples {
		ps := &s.samples[i]
		if ps.FirstNS > toNS || ps.LastNS < fromNS {
			continue
		}
		if !f.matches(s, ps) {
			continue
		}
		out = append(out, *ps)
	}
	return out
}

// FuncStat is one frame's standing in a profile window: Self counts samples
// where the frame was on top of the stack, Total counts samples where it
// appeared anywhere (inclusive time).
type FuncStat struct {
	Frame string
	Self  uint64
	Total uint64
}

// TopFunctions ranks frames in the window by self count (total as the
// tiebreak), capped at n (0 = all) — the profile-plane analogue of the
// span-list "slowest endpoints" view.
func (s *ProfileStore) TopFunctions(from, to time.Time, f ProfileFilter, n int) []FuncStat {
	return topFunctions(s.Query(from, to, f), n)
}

// topFunctions ranks frames across an already-collected sample set; the
// aggregation is map-based so the caller's sample order does not matter —
// partition-merged and single-store queries rank identically.
func topFunctions(samples []profiling.Sample, n int) []FuncStat {
	self := make(map[string]uint64)
	total := make(map[string]uint64)
	for _, ps := range samples {
		if len(ps.Stack) == 0 {
			continue
		}
		self[ps.Stack[len(ps.Stack)-1]] += ps.Count
		seen := map[string]bool{}
		for _, fr := range ps.Stack {
			if !seen[fr] { // recursive frames count once per sample
				seen[fr] = true
				total[fr] += ps.Count
			}
		}
	}
	out := make([]FuncStat, 0, len(total))
	for fr, tot := range total {
		out = append(out, FuncStat{Frame: fr, Self: self[fr], Total: tot})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Frame < out[j].Frame
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteFolded writes the window's samples as flamegraph.pl folded text.
func (s *ProfileStore) WriteFolded(w io.Writer, from, to time.Time, f ProfileFilter) error {
	_, err := io.WriteString(w, profiling.FoldedText(s.Query(from, to, f)))
	return err
}

// ProfileSamples answers a profile query merged across the store
// partitions, in a canonical order (hit window, then identity fields) so
// the result is identical for any shard count over the same corpus.
func (s *Server) ProfileSamples(from, to time.Time, f ProfileFilter) []profiling.Sample {
	var all []profiling.Sample
	for _, p := range s.profiles {
		all = append(all, p.Query(from, to, f)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.FirstNS != b.FirstNS {
			return a.FirstNS < b.FirstNS
		}
		if a.LastNS != b.LastNS {
			return a.LastNS < b.LastNS
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if sa, sb := profiling.Fold(a.Stack), profiling.Fold(b.Stack); sa != sb {
			return sa < sb
		}
		return a.Count < b.Count
	})
	return all
}

// TopFunctions ranks frames across all partitions (see
// ProfileStore.TopFunctions).
func (s *Server) TopFunctions(from, to time.Time, f ProfileFilter, n int) []FuncStat {
	return topFunctions(s.ProfileSamples(from, to, f), n)
}

// WriteFolded writes the window's samples from all partitions as
// flamegraph.pl folded text.
func (s *Server) WriteFolded(w io.Writer, from, to time.Time, f ProfileFilter) error {
	_, err := io.WriteString(w, profiling.FoldedText(s.ProfileSamples(from, to, f)))
	return err
}

// SpanProfile returns the profile slice correlated with one span: the
// sampled stacks of the span's pod restricted to the span's [start, end]
// window — the §4.1.3 correlation workflow extended to the third pillar.
func (s *Server) SpanProfile(sp *trace.Span) []profiling.Sample {
	d := s.Registry.Decode(sp.Resource)
	f := ProfileFilter{Pod: d.Pod}
	if d.Pod == "" {
		f.Proc = sp.ProcessName
	}
	return s.ProfileSamples(sp.StartTime, sp.EndTime, f)
}

// TraceHotSpan returns the trace's slowest span by self time — duration
// minus the durations of its nearest descendant process-side spans. The
// trace root is always the "slowest" span by wall clock because it contains
// everything; self time is what localizes which hop actually burned it.
func TraceHotSpan(tr *trace.Trace) (*trace.Span, time.Duration) {
	if tr == nil || len(tr.Spans) == 0 {
		return nil, 0
	}
	// nearestProcessDescendants walks below sp, stopping at the first
	// process-side span on each branch (NIC/node mirrors in between are
	// views of the same request, not additional work).
	var nearest func(id trace.SpanID) []*trace.Span
	nearest = func(id trace.SpanID) []*trace.Span {
		var out []*trace.Span
		for _, c := range tr.Children(id) {
			if c.TapSide == trace.TapServerProcess {
				out = append(out, c)
				continue
			}
			out = append(out, nearest(c.ID)...)
		}
		return out
	}
	var best *trace.Span
	var bestSelf time.Duration
	for _, sp := range tr.Spans {
		if sp.TapSide != trace.TapServerProcess {
			continue
		}
		self := sp.Duration()
		for _, c := range nearest(sp.ID) {
			self -= c.Duration()
		}
		if best == nil || self > bestSelf {
			best, bestSelf = sp, self
		}
	}
	return best, bestSelf
}

// SlowestSpanProfile runs the full correlation query: find the trace's
// hottest span (largest self time), then return it with the profile slice
// for its pod over its [start, end] window.
func (s *Server) SlowestSpanProfile(tr *trace.Trace) (*trace.Span, []profiling.Sample) {
	sp, _ := TraceHotSpan(tr)
	if sp == nil {
		return nil, nil
	}
	return sp, s.SpanProfile(sp)
}

// FormatProfile renders top functions plus folded stacks for CLI display.
func (s *Server) FormatProfile(from, to time.Time, f ProfileFilter, topN int) string {
	top := s.TopFunctions(from, to, f, topN)
	if len(top) == 0 {
		return "(no profile samples)\n"
	}
	out := fmt.Sprintf("%-40s %8s %8s\n", "frame", "self", "total")
	for _, fs := range top {
		out += fmt.Sprintf("%-40s %8d %8d\n", fs.Frame, fs.Self, fs.Total)
	}
	return out
}
