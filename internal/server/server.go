package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepflow/internal/dstore"
	"deepflow/internal/metrics"
	"deepflow/internal/rollup"
	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// Server is the cluster-level DeepFlow server process: it ingests spans and
// flow metrics from agents, injects smart-encoded resource tags, stores
// spans, and answers span-list, trace-assembly, and correlated-metric
// queries.
//
// Ingest is sharded and has one entrance, IngestBatch (agent.Sink): encoded
// batches land on a bounded queue and N workers decode and enrich them in
// parallel, each into its own store partition (the ClickHouse-style
// parallel-ingest architecture behind the paper's 2·10⁵ rows/s/node
// figure). Queries merge across partitions, so callers never see the
// sharding — no partition is reachable from outside the package.
type Server struct {
	Registry *ResourceRegistry
	Metrics  *metrics.Store

	// Mon is the server's self-monitoring registry (Fig. 19-style
	// self-accounting applied to the server itself).
	Mon *selfmon.Registry

	stores   []*SpanStore
	profiles []*ProfileStore
	rollups  []*rollup.Partial // one streaming-aggregation partial per shard

	queue        *transport.Queue
	startWorkers sync.Once
	workersDone  sync.WaitGroup
	pending      sync.WaitGroup

	// durable, when AttachDurable has run, holds one dstore shard per
	// ingest shard: the worker WAL-logs each wire batch before applying it,
	// so a crash replays the identical ingest sequence.
	durable []*dstore.Shard

	// ingestedThrough[i] is shard i's freshness watermark: the newest row
	// event-timestamp (UnixNano) it has made queryable. The gap between a
	// wall clock and this watermark is the shard's ingest-to-queryable lag —
	// the bound on how stale an alert evaluated "now" can be.
	ingestedThrough []atomic.Int64

	mSpans        *selfmon.Counter
	mFlows        *selfmon.Counter
	mProfiles     *selfmon.Counter
	mBatches      *selfmon.Counter
	mBatchBytes   *selfmon.Counter
	mBatchErrors  *selfmon.Counter
	mFreshLag     []*selfmon.Gauge
	mWatermarkAge *selfmon.Gauge
}

// New creates a single-shard server with the given tag encoding.
func New(reg *ResourceRegistry, enc Encoding) *Server {
	return NewSharded(reg, enc, 0, 1)
}

// NewSharded creates a server with `shards` parallel ingest workers, each
// owning its own span and profile store partition; `wide` is
// NewSpanStoreWide's. Workers start lazily on the first IngestBatch, so a
// server that is only queried never spawns goroutines.
func NewSharded(reg *ResourceRegistry, enc Encoding, wide, shards int) *Server {
	if shards <= 0 {
		shards = 1
	}
	s := &Server{
		Registry: reg,
		Metrics:  metrics.NewStore(),
		Mon:      selfmon.New("server", "server"),
		queue:    transport.NewQueue(0),
	}
	// The rollup resolver is the registry's read-only IP lookup: edges and
	// flow pairs get the same smart-encoded identities spans get.
	resolve := func(ip trace.IP) trace.ResourceTags {
		return reg.Enrich(trace.ResourceTags{IP: ip})
	}
	for i := 0; i < shards; i++ {
		part := ""
		if i > 0 {
			part = fmt.Sprintf(".p%d", i)
		}
		s.stores = append(s.stores, NewSpanStoreWide(enc, reg, wide))
		s.profiles = append(s.profiles, newProfileStorePart(enc, reg, part))
		s.rollups = append(s.rollups, rollup.NewPartial(resolve))
	}
	s.ingestedThrough = make([]atomic.Int64, shards)

	s.mSpans = s.Mon.Counter("deepflow_server_spans_ingested")
	s.mFlows = s.Mon.Counter("deepflow_server_flows_ingested")
	s.mProfiles = s.Mon.Counter("deepflow_server_profiles_ingested")
	s.mBatches = s.Mon.Counter("deepflow_server_batches_ingested")
	s.mBatchBytes = s.Mon.Counter("deepflow_server_batch_bytes")
	s.mBatchErrors = s.Mon.Counter("deepflow_server_batch_errors")
	s.Mon.GaugeFunc("deepflow_server_ingest_shards",
		func() float64 { return float64(shards) })
	s.Mon.GaugeFunc("deepflow_server_ingest_queue_depth",
		func() float64 { return float64(s.queue.Len()) })
	s.Mon.GaugeFunc("deepflow_server_batches_dropped",
		func() float64 { return float64(s.queue.Dropped()) })
	s.Mon.GaugeFunc("deepflow_server_ingest_backpressure_waits",
		func() float64 { return float64(s.queue.Waits()) })
	s.Mon.GaugeFunc("deepflow_server_ingest_backpressure_seconds",
		func() float64 { return s.queue.WaitTime().Seconds() })
	instrumentStores(s.Mon, s.stores)
	instrumentProfiles(s.Mon, s.profiles)
	instrumentRollups(s.Mon, s.rollups)
	// Pipeline freshness (deepflow_server_freshness_*): per-shard queryable
	// watermarks plus the lag gauges UpdateFreshness recomputes at scrape
	// time — the evidence that lets an alert timestamp be trusted relative
	// to ingest delay.
	for i := 0; i < shards; i++ {
		i := i
		tag := selfmon.Tag{K: "shard", V: fmt.Sprintf("%d", i)}
		s.Mon.GaugeFunc("deepflow_server_freshness_ingested_through_unix_seconds",
			func() float64 {
				ns := s.ingestedThrough[i].Load()
				if ns == 0 {
					return 0
				}
				return float64(ns) / 1e9
			}, tag)
		s.mFreshLag = append(s.mFreshLag,
			s.Mon.Gauge("deepflow_server_freshness_lag_seconds", tag))
	}
	s.mWatermarkAge = s.Mon.Gauge("deepflow_server_freshness_watermark_age_seconds")
	// Smart-encoding dictionary cardinalities (Fig. 8's query-time name
	// resolution depends on these staying small relative to span volume).
	for name, d := range map[string]*dictionary{
		"pods":       reg.pods,
		"nodes":      reg.nodes,
		"services":   reg.services,
		"namespaces": reg.namespaces,
		"regions":    reg.regions,
		"azs":        reg.azs,
	} {
		s.Mon.GaugeFunc("deepflow_server_dictionary_size",
			func() float64 { return float64(d.size()) },
			selfmon.Tag{K: "dict", V: name})
	}
	return s
}

// Shards returns the number of ingest shards.
func (s *Server) Shards() int { return len(s.stores) }

// SpansIngested returns the number of spans ingested.
func (s *Server) SpansIngested() int { return int(s.mSpans.Value()) }

// FlowsIngested returns the number of flow samples ingested.
func (s *Server) FlowsIngested() int { return int(s.mFlows.Value()) }

// ProfilesIngested returns the number of profile samples ingested.
func (s *Server) ProfilesIngested() int { return int(s.mProfiles.Value()) }

// WriteStats renders the server's self-metrics in Prometheus text format.
func (s *Server) WriteStats(w io.Writer) error { return s.Mon.WriteProm(w) }

// IngestBatch accepts one wire-encoded batch (transport.Encode) and queues
// it for the ingest shards. It blocks only when the queue is full
// (backpressure, accounted in the selfmon gauges) and errors only when the
// server is closed — in which case the batch is counted dropped, never
// silently lost.
func (s *Server) IngestBatch(data []byte) error {
	s.startWorkers.Do(s.spawnWorkers)
	s.mBatches.Inc()
	s.mBatchBytes.Add(uint64(len(data)))
	s.pending.Add(1)
	if !s.queue.Push(data) {
		s.pending.Done()
		return fmt.Errorf("server: ingest queue closed, batch dropped")
	}
	return nil
}

// Drain blocks until every batch accepted so far has been fully ingested.
// Call it before querying when batches may still be in flight.
func (s *Server) Drain() { s.pending.Wait() }

// Close shuts the ingest plane down cleanly: queued batches are still
// drained, new IngestBatch calls fail, the shard workers exit, and any
// durable shards seal their memtables and sync their WALs — so a reopen
// replays zero WAL batches. Idempotent.
func (s *Server) Close() {
	s.queue.Close()
	s.workersDone.Wait()
	for _, sh := range s.durable {
		_ = sh.Close()
	}
}

// Kill simulates a crash for recovery tests: workers stop, but durable
// shards neither seal nor sync — file handles just drop. Recovery sees
// exactly what the OS already had of the WAL.
func (s *Server) Kill() {
	s.queue.Close()
	s.workersDone.Wait()
	for _, sh := range s.durable {
		sh.Abort()
	}
}

func (s *Server) spawnWorkers() {
	for i := range s.stores {
		s.workersDone.Add(1)
		go s.ingestWorker(i)
	}
}

// ingestWorker is one shard: it pulls whole batches off the shared queue
// and decodes + enriches + stores them into its own partition. Work steals
// naturally — a slow batch occupies one shard while the others keep
// pulling.
func (s *Server) ingestWorker(shard int) {
	defer s.workersDone.Done()
	for {
		data, ok := s.queue.Pop()
		if !ok {
			return
		}
		b, err := transport.Decode(data)
		if err != nil {
			s.mBatchErrors.Inc()
			s.pending.Done()
			continue
		}
		// Durability before queryability: the raw wire bytes hit the shard's
		// WAL (and possibly seal into a block) before the rows enter any
		// queryable structure, so no query ever observes a row a crash could
		// un-ingest. Compact is a cheap no-op unless a seal just created a
		// mergeable run. An Append error is a seal that failed: the shard has
		// counted it (deepflow_storage_seal_errors), the batch is safe in its
		// WAL and memtable, and the next Append retries — so ingest goes on
		// (availability over durability, as for WAL write errors).
		if s.durable != nil {
			sh := s.durable[shard]
			if err := sh.Append(data, b); err == nil {
				_, _ = sh.Compact()
			}
		}
		s.applyBatch(shard, b)
		s.pending.Done()
	}
}

// applyBatch folds one decoded batch into shard's queryable state — store,
// rollup, metrics, freshness. It is the single ingest path: every live row
// arrives in a batch the worker has already WAL-logged, and WAL/block
// replay (AttachDurable) comes through here too, which is what makes crash
// recovery byte-identical with an uninterrupted run.
// Enrich is a read-only registry lookup, so re-enriching replayed rows is
// idempotent.
func (s *Server) applyBatch(shard int, b *transport.Batch) {
	st, pf, rp := s.stores[shard], s.profiles[shard], s.rollups[shard]
	var newest int64
	for _, sp := range b.Spans {
		sp.Resource = s.Registry.Enrich(sp.Resource)
		st.Insert(sp)
		rp.ObserveSpan(sp)
		s.mSpans.Inc()
		if ns := sp.StartTime.UnixNano(); ns > newest {
			newest = ns
		}
	}
	for _, f := range b.Flows {
		s.ingestFlow(f)
		rp.ObserveFlow(f)
		if ns := f.TS.UnixNano(); ns > newest {
			newest = ns
		}
	}
	for _, ps := range b.Profiles {
		ps.Resource = s.Registry.Enrich(ps.Resource)
		pf.Insert(ps)
		s.mProfiles.Inc()
	}
	s.advanceFreshness(shard, newest)
}

// advanceFreshness raises shard's queryable watermark to ns (monotonic;
// late rows never move it backwards).
func (s *Server) advanceFreshness(shard int, ns int64) {
	if ns == 0 {
		return
	}
	w := &s.ingestedThrough[shard]
	for {
		cur := w.Load()
		if ns <= cur || w.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// UpdateFreshness recomputes the per-shard ingest-to-queryable lag and the
// rollup fine-tier watermark age against the given clock. The deployment
// calls it on every self-scrape, so the deepflow_server_freshness_* gauges
// are as current as every other exported series.
func (s *Server) UpdateFreshness(now time.Time) {
	for i := range s.ingestedThrough {
		ns := s.ingestedThrough[i].Load()
		if ns == 0 {
			// Nothing ingested yet: lag is undefined, report zero rather
			// than "now - epoch".
			s.mFreshLag[i].Set(0)
			continue
		}
		s.mFreshLag[i].Set(now.Sub(time.Unix(0, ns)).Seconds())
	}
	if floor := s.rollups[0].FineFloor(); !floor.IsZero() {
		s.mWatermarkAge.Set(now.Sub(floor).Seconds())
	}
}

// FreshnessLag returns each shard's current ingest-to-queryable lag
// against the given clock (zero for shards that have ingested nothing).
func (s *Server) FreshnessLag(now time.Time) []time.Duration {
	out := make([]time.Duration, len(s.ingestedThrough))
	for i := range s.ingestedThrough {
		if ns := s.ingestedThrough[i].Load(); ns != 0 {
			out[i] = now.Sub(time.Unix(0, ns))
		}
	}
	return out
}

// ingestFlow turns one flow sample's metric deltas into series in the
// metrics plane, tagged so they correlate with traces (§3.4).
func (s *Server) ingestFlow(f transport.FlowSample) {
	tags := map[string]string{
		"host": f.Host,
		"nic":  f.NIC,
		"flow": f.Tuple.String(),
	}
	add := func(name string, v float64) {
		if v != 0 {
			s.Metrics.Add(name, tags, f.TS, v)
		}
	}
	add("net.retransmissions", float64(f.Delta.Retransmissions))
	add("net.resets", float64(f.Delta.Resets))
	add("net.zero_windows", float64(f.Delta.ZeroWindows))
	add("net.bytes_sent", float64(f.Delta.BytesSent))
	add("net.bytes_received", float64(f.Delta.BytesReceived))
	add("net.arp_requests", float64(f.Delta.ARPRequests))
	add("net.kernel_packets", float64(f.KernelPackets))
	add("net.kernel_bytes", float64(f.KernelBytes))
	if f.Delta.RTT > 0 {
		s.Metrics.Add("net.rtt_us", tags, f.TS, float64(f.Delta.RTT.Microseconds()))
	}
	s.mFlows.Inc()
}

// SpanList answers the span-list query of Fig. 15, merged across the store
// partitions. The merged order — StartTime descending, span ID descending
// on ties — is a total order, so the result is identical for any shard
// count over the same corpus.
func (s *Server) SpanList(from, to time.Time, limit int) []*trace.Span {
	var all []*trace.Span
	for _, st := range s.stores {
		// Each partition cuts by the same (StartTime, ID) total order the
		// merge below uses, so a span in the global top-`limit` is in its
		// own partition's top-`limit` — ties at the cut included.
		all = append(all, st.SpanList(from, to, limit)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !a.StartTime.Equal(b.StartTime) {
			return a.StartTime.After(b.StartTime)
		}
		return a.ID > b.ID
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// SpanByID finds a span in any partition.
func (s *Server) SpanByID(id trace.SpanID) *trace.Span {
	for _, st := range s.stores {
		if sp := st.Span(id); sp != nil {
			return sp
		}
	}
	return nil
}

// SpanCount returns the number of stored spans across all partitions.
func (s *Server) SpanCount() int {
	n := 0
	for _, st := range s.stores {
		n += st.Len()
	}
	return n
}

// Trace assembles the distributed trace containing the given span
// (Algorithm 1) with the default iteration bound, searching every store
// partition — a trace whose spans were ingested by different shards still
// assembles whole.
func (s *Server) Trace(start trace.SpanID) *trace.Trace {
	return s.Assemble(start, DefaultIterations, AssocAll)
}

// Assemble is Trace with an explicit iteration bound (<= 0 means
// DefaultIterations) and restricted to the given association keys — the
// knobs the ablation experiments turn, on the same cross-partition path
// Trace runs.
func (s *Server) Assemble(start trace.SpanID, iterations int, mask AssocMask) *trace.Trace {
	return assembleAcross(s.stores, start, iterations, mask)
}

// DecoratedSpan is a span expanded with query-time tag names (Fig. 8 ⑧).
type DecoratedSpan struct {
	*trace.Span
	Tags DecodedTags
}

// Decorate expands a span's integer tags into names and custom labels.
func (s *Server) Decorate(sp *trace.Span) DecoratedSpan {
	return DecoratedSpan{Span: sp, Tags: s.Registry.Decode(sp.Resource)}
}

// RelatedMetrics returns the network metric series correlated with a span
// through its flow and host tags — the metric-by-metric analysis of the
// §4.1.3 case study.
func (s *Server) RelatedMetrics(sp *trace.Span, name string, from, to time.Time) []metrics.Series {
	flow := sp.Flow.Canonical().String()
	return s.Metrics.Query(name, map[string]string{"flow": flow}, from, to)
}

// FormatTrace renders a trace as an indented tree for CLI display.
func (s *Server) FormatTrace(tr *trace.Trace) string {
	if tr == nil || len(tr.Spans) == 0 {
		return "(empty trace)\n"
	}
	var out string
	var walk func(sp *trace.Span, depth int)
	printed := map[trace.SpanID]bool{}
	walk = func(sp *trace.Span, depth int) {
		if printed[sp.ID] {
			return
		}
		printed[sp.ID] = true
		d := s.Decorate(sp)
		name := d.Tags.Pod
		if name == "" {
			name = sp.HostName
		}
		out += fmt.Sprintf("%*s[%s] %s %s %s %s → %d %s (%.3fms)\n",
			depth*2, "", sp.TapSide, name, sp.ProcessName, sp.L7,
			sp.RequestType+" "+sp.RequestResource, sp.ResponseCode,
			sp.ResponseStatus, float64(sp.Duration().Microseconds())/1000)
		for _, child := range tr.Children(sp.ID) {
			walk(child, depth+1)
		}
	}
	for _, sp := range tr.Spans {
		if sp.ParentID == 0 {
			walk(sp, 0)
		}
	}
	// Anything unreachable (cycle remnants) at the end.
	for _, sp := range tr.Spans {
		walk(sp, 0)
	}
	return out
}
