// Package dstore is the durable tiered storage engine under the DeepFlow
// server — the half of the paper's ClickHouse story (§3.4) that
// internal/storage's in-memory columnar accounting stood in for. Each
// ingest shard owns one Shard rooted in its own directory:
//
//	WAL segments        →  memtable  →  sealed blocks  →  compaction  →  TTL
//	(CRC-framed raw     (decoded rows  (immutable files,  (size-tiered   (whole
//	batches, group-      awaiting       per-column         merge of       blocks
//	commit fsync)        seal)          compression)       neighbors)     dropped)
//
// The WAL payload is the exact wire-encoded batch the ingest worker
// received (internal/transport), so crash recovery replays the identical
// ingest path — enrich, store, rollup, freshness — and reaches a state
// byte-identical with pre-crash query answers. Sealed blocks re-encode
// rows columnarly in internal/storage's column layouts — delta+varint for
// the smart-encoded integer columns, the LowCardinality dictionary for
// strings — with the span's non-columnar rest, flows, and profiles in the
// trace/transport wire layout. No second format is invented anywhere; but
// block.go reads and writes those layouts itself, straight between span
// fields and one byte buffer, rather than through storage.Column values
// (which stay for Fig. 14 and the server's shadow table).
//
// Compaction is concatenation. A block image is a pure function of its
// rows (delta columns restart at 0, dictionaries list values once in
// first-appearance order, no column has a length prefix, every varint is
// minimal — block.go's header spells it out, and every read enforces it),
// so merging blocks never decodes a row: compact.go copies integer columns
// and rebases one delta per input, unions dictionaries and rewrites only
// the index varints, splices the row-major sections, and produces exactly
// the bytes a single seal of all the rows would have. A seal or a merge is
// made durable (written and fsynced through one descriptor, then renamed)
// before anything it supersedes is touched; a seal that fails is counted
// (Stats.SealErrors), leaves the WAL and the memtable as they were, and is
// retried by the next Append.
//
// Concurrency: a Shard is internally locked (mu) around the WAL, the
// memtable, and the block list; block files themselves are immutable, so
// scans and compactions read them outside the lock, with reference counts
// deferring file deletion past in-flight readers. A compaction also writes
// and fsyncs its output outside the lock and takes it only to rename the
// file into place and swap handles; compactions of one shard are
// serialized by compactMu. All counters the deepflow_storage_* gauges
// scrape are atomics.
//
// Determinism contract: dstore is a dflint contract package — replay,
// scan, compaction, and eviction never consult a clock and never let map
// iteration order escape (rows and blocks are slices in append order).
package dstore

import "time"

// SyncPolicy controls when the WAL fsyncs.
type SyncPolicy uint8

// Fsync policies.
const (
	// SyncGroup (default) is group commit: appends accumulate and fsync
	// once GroupBytes are dirty, plus on every seal and clean close — the
	// ClickHouse-style tradeoff between durability window and throughput.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs after every appended batch.
	SyncAlways
	// SyncNever leaves flushing to the OS except on seal and clean close.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "sync?"
	}
}

// ParseSyncPolicy maps a -fsync flag value to its policy.
func ParseSyncPolicy(s string) (SyncPolicy, bool) {
	switch s {
	case "group", "":
		return SyncGroup, true
	case "always":
		return SyncAlways, true
	case "never":
		return SyncNever, true
	default:
		return SyncGroup, false
	}
}

// BlockEncoding selects the per-column compression of sealed blocks — the
// on-disk axis of Fig. 14, swept by `dfbench storage`.
type BlockEncoding uint8

// Block encodings.
const (
	// EncDelta (default): delta+varint integer columns, LowCardinality
	// dictionary string columns.
	EncDelta BlockEncoding = iota
	// EncDirect: plain varint integers, raw string columns ("direct
	// storing" moved to disk).
	EncDirect
	// EncLowCard: plain varint integers, LowCardinality strings —
	// isolates what the dictionary buys without delta.
	EncLowCard
)

func (e BlockEncoding) String() string {
	switch e {
	case EncDelta:
		return "delta-varint"
	case EncDirect:
		return "direct"
	case EncLowCard:
		return "low-cardinality"
	default:
		return "enc?"
	}
}

// Config tunes one shard of the engine. The zero value is NOT usable;
// start from DefaultConfig.
type Config struct {
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// GroupBytes is the group-commit threshold: under SyncGroup the WAL
	// fsyncs once this many bytes are dirty.
	GroupBytes int
	// SealSpans seals the memtable into a block once it holds this many
	// spans.
	SealSpans int
	// SealBytes seals once the live (uncovered) WAL reaches this many
	// bytes, whichever of the two thresholds trips first.
	SealBytes int64
	// CompactFanIn merges this many adjacent same-tier blocks per
	// compaction step (size-tiered policy).
	CompactFanIn int
	// Encoding is the sealed blocks' per-column compression.
	Encoding BlockEncoding
}

// DefaultConfig returns the production-shaped tuning.
func DefaultConfig() Config {
	return Config{
		Sync:         SyncGroup,
		GroupBytes:   256 << 10,
		SealSpans:    4096,
		SealBytes:    1 << 20,
		CompactFanIn: 4,
		Encoding:     EncDelta,
	}
}

// withDefaults fills zero fields so partially-specified test configs work.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.GroupBytes <= 0 {
		c.GroupBytes = d.GroupBytes
	}
	if c.SealSpans <= 0 {
		c.SealSpans = d.SealSpans
	}
	if c.SealBytes <= 0 {
		c.SealBytes = d.SealBytes
	}
	if c.CompactFanIn < 2 {
		c.CompactFanIn = d.CompactFanIn
	}
	return c
}

// ReplayStats reports what Open recovered from disk: rows that came back
// from sealed blocks versus batches replayed through the WAL, plus the
// torn-tail records dropped on the way. A clean shutdown (Close seals and
// syncs) replays zero WAL batches.
type ReplayStats struct {
	Blocks        int // sealed blocks replayed
	BlockSpans    int
	BlockFlows    int
	BlockProfiles int

	WALSegments int // live WAL segments replayed
	WALBatches  int
	WALSpans    int

	// TornTailDropped counts trailing WAL records dropped as torn writes
	// (incomplete frame or CRC-bad final record). Mid-file corruption is a
	// hard error, never a drop.
	TornTailDropped int
}

// Add folds o into s (per-shard stats summed server-wide).
func (s *ReplayStats) Add(o ReplayStats) {
	s.Blocks += o.Blocks
	s.BlockSpans += o.BlockSpans
	s.BlockFlows += o.BlockFlows
	s.BlockProfiles += o.BlockProfiles
	s.WALSegments += o.WALSegments
	s.WALBatches += o.WALBatches
	s.WALSpans += o.WALSpans
	s.TornTailDropped += o.TornTailDropped
}

// Stats is a point-in-time snapshot of one shard's tiers, assembled from
// atomics (safe to call concurrently with ingest).
type Stats struct {
	WALBytes    int64 // live (uncovered) WAL segment bytes
	WALSegments int64
	SealedBytes int64 // sealed block file bytes
	Blocks      int64
	MemSpans    int64 // memtable spans awaiting seal

	Compactions      int64 // merges performed
	CompactionDebt   int64 // blocks above one per size tier (pending merge inputs)
	EvictedBlocks    int64 // blocks dropped by retention
	EvictedSpans     int64 // spans inside those blocks
	TornTailDropped  int64
	WALAppendErrors  int64
	SealErrors       int64 // seals whose block write, fsync or rename failed; retried by the next Append
	ReplayWALBatches int64
	ReplayWALSpans   int64
	ReplayBlockSpans int64
}

// Retention helpers: durations are wall-clock TTLs applied by the server's
// retention cascade; cutoffNS converts one to the block-eviction horizon.
func cutoffNS(cutoff time.Time) int64 { return cutoff.UnixNano() }
