package server

// Durable-tier wiring: each ingest shard gets a dstore.Shard rooted in its
// own directory, fed the raw wire batches the worker decodes. Recovery
// replays blocks + WAL through applyBatch — the same path live batches
// take — so a restarted server answers queries byte-identically with the
// pre-crash server (kill-and-replay variant of the shard-determinism
// contract). Retention cascades here too: raw spans are evicted from both
// the in-memory stores and the sealed blocks, while rollups (their own,
// longer TTL) keep answering aggregate queries over the evicted range.

import (
	"fmt"
	"path/filepath"
	"time"

	"deepflow/internal/dstore"
	"deepflow/internal/profiling"
	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// AttachDurable opens (or recovers) one dstore shard per ingest shard
// under dir and replays whatever is on disk through the normal ingest
// path. It must be called before the first IngestBatch — replay and live
// ingest may not interleave. The span stores' disk accounting switches to
// the measured WAL + sealed-block footprint.
func (s *Server) AttachDurable(dir string, cfg dstore.Config) (dstore.ReplayStats, error) {
	var total dstore.ReplayStats
	if s.durable != nil {
		return total, fmt.Errorf("server: durable storage already attached")
	}
	shards := make([]*dstore.Shard, len(s.stores))
	for i := range s.stores {
		i := i
		sh, rs, err := dstore.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), cfg,
			func(b *transport.Batch) { s.applyBatch(i, b) })
		if err != nil {
			for _, prev := range shards[:i] {
				prev.Abort()
			}
			return total, err
		}
		shards[i] = sh
		total.Add(rs)
		s.stores[i].Table().SetPersistent(sh.DiskBytes)
	}
	s.durable = shards
	instrumentDurable(s.Mon, shards)
	return total, nil
}

// Durable reports whether a durable tier is attached.
func (s *Server) Durable() bool { return s.durable != nil }

// DurableStats sums the per-shard durable-tier counters.
func (s *Server) DurableStats() dstore.Stats {
	var total dstore.Stats
	for _, sh := range s.durable {
		st := sh.Stats()
		total.WALBytes += st.WALBytes
		total.WALSegments += st.WALSegments
		total.SealedBytes += st.SealedBytes
		total.Blocks += st.Blocks
		total.MemSpans += st.MemSpans
		total.Compactions += st.Compactions
		total.CompactionDebt += st.CompactionDebt
		total.EvictedBlocks += st.EvictedBlocks
		total.EvictedSpans += st.EvictedSpans
		total.TornTailDropped += st.TornTailDropped
		total.WALAppendErrors += st.WALAppendErrors
		total.SealErrors += st.SealErrors
		total.ReplayWALBatches += st.ReplayWALBatches
		total.ReplayWALSpans += st.ReplayWALSpans
		total.ReplayBlockSpans += st.ReplayBlockSpans
	}
	return total
}

// DurableScan walks every sealed block (then memtable tail) of every
// durable shard in shard order — the tier-verification hook retention and
// replay tests use to see what is actually on disk.
func (s *Server) DurableScan(visit func(shard int, info dstore.BlockInfo, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample) error) error {
	for i, sh := range s.durable {
		i := i
		err := sh.Scan(func(info dstore.BlockInfo, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample) error {
			return visit(i, info, spans, flows, profiles)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RetentionResult reports what one ApplyRetention pass removed.
type RetentionResult struct {
	MemSpans     int // spans evicted from the in-memory stores
	DiskBlocks   int // sealed blocks dropped from the durable tier
	DiskSpans    int // spans inside those blocks
	CoarseFloors int // rollup partials whose coarse horizon advanced
}

// ApplyRetention runs one pass of the TTL cascade against the given clock:
// raw spans older than `raw` are evicted from the in-memory stores and
// (block-granular) from the durable tier, and rollup aggregates older than
// `rollup` are dropped for good. Rollup retention is expected to exceed
// raw retention — that ordering is what lets aggregate queries stay exact
// over windows whose raw spans are gone. Zero durations disable that
// stage. The fine-tier rollup watermark has its own, shorter TTL driven by
// the deployment's EvictRollups.
func (s *Server) ApplyRetention(now time.Time, raw, rollup time.Duration) RetentionResult {
	var res RetentionResult
	if raw > 0 {
		cutoff := now.Add(-raw)
		for i, st := range s.stores {
			res.MemSpans += st.EvictBefore(cutoff)
			if s.durable != nil {
				blocks, spans := s.durable[i].EvictBefore(cutoff.UnixNano())
				res.DiskBlocks += blocks
				res.DiskSpans += spans
			}
		}
	}
	if rollup > 0 {
		cutoff := now.Add(-rollup)
		for _, rp := range s.rollups {
			rp.EvictCoarseBefore(cutoff)
			res.CoarseFloors++
		}
	}
	return res
}

// instrumentDurable registers the deepflow_storage_* gauges: every tier of
// the durable engine — WAL bytes, sealed bytes, memtable backlog,
// compaction debt, eviction and replay progress — summed across shards,
// matching how the queries those shards answer are merged.
func instrumentDurable(mon *selfmon.Registry, shards []*dstore.Shard) {
	sum := func(per func(dstore.Stats) int64) func() float64 {
		return func() float64 {
			var t int64
			for _, sh := range shards {
				t += per(sh.Stats())
			}
			return float64(t)
		}
	}
	mon.GaugeFunc("deepflow_storage_wal_bytes",
		sum(func(st dstore.Stats) int64 { return st.WALBytes }))
	mon.GaugeFunc("deepflow_storage_wal_segments",
		sum(func(st dstore.Stats) int64 { return st.WALSegments }))
	mon.GaugeFunc("deepflow_storage_sealed_bytes",
		sum(func(st dstore.Stats) int64 { return st.SealedBytes }))
	mon.GaugeFunc("deepflow_storage_sealed_blocks",
		sum(func(st dstore.Stats) int64 { return st.Blocks }))
	mon.GaugeFunc("deepflow_storage_memtable_spans",
		sum(func(st dstore.Stats) int64 { return st.MemSpans }))
	mon.GaugeFunc("deepflow_storage_compactions",
		sum(func(st dstore.Stats) int64 { return st.Compactions }))
	mon.GaugeFunc("deepflow_storage_compaction_debt",
		sum(func(st dstore.Stats) int64 { return st.CompactionDebt }))
	mon.GaugeFunc("deepflow_storage_evicted_blocks",
		sum(func(st dstore.Stats) int64 { return st.EvictedBlocks }))
	mon.GaugeFunc("deepflow_storage_evicted_spans",
		sum(func(st dstore.Stats) int64 { return st.EvictedSpans }))
	mon.GaugeFunc("deepflow_storage_torn_tail_dropped",
		sum(func(st dstore.Stats) int64 { return st.TornTailDropped }))
	mon.GaugeFunc("deepflow_storage_wal_append_errors",
		sum(func(st dstore.Stats) int64 { return st.WALAppendErrors }))
	mon.GaugeFunc("deepflow_storage_seal_errors",
		sum(func(st dstore.Stats) int64 { return st.SealErrors }))
	mon.GaugeFunc("deepflow_storage_replay_wal_batches",
		sum(func(st dstore.Stats) int64 { return st.ReplayWALBatches }))
	mon.GaugeFunc("deepflow_storage_replay_wal_spans",
		sum(func(st dstore.Stats) int64 { return st.ReplayWALSpans }))
	mon.GaugeFunc("deepflow_storage_replay_block_spans",
		sum(func(st dstore.Stats) int64 { return st.ReplayBlockSpans }))
}
