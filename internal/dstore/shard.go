package dstore

// Shard is one ingest shard's durable engine: an append-only WAL in front
// of an in-memory memtable, sealed into immutable block files. All mutable
// state lives behind mu; block files are immutable and read outside the
// lock with refcounted handles deferring deletion past in-flight readers.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// blockHandle tracks one sealed block file. The meta fields are immutable
// after construction; refs/dead are guarded by the shard's mu.
type blockHandle struct {
	path              string
	walFirst, walLast uint64
	bytes             int64
	spans             int
	flows             int
	profiles          int
	minNS, maxNS      int64
	enc               BlockEncoding

	refs int  // in-flight readers (scans, compactions)
	dead bool // superseded or evicted; file removed once refs==0
}

// memtable is the un-sealed tail: decoded rows awaiting the next seal,
// mirroring exactly the live (uncovered) WAL segments.
type memtable struct {
	spans    []*trace.Span
	flows    []transport.FlowSample
	profiles []profiling.Sample
}

func (m *memtable) reset() {
	m.spans = nil
	m.flows = nil
	m.profiles = nil
}

// Shard is the durable engine for one ingest shard.
type Shard struct {
	dir string
	cfg Config

	compactMu sync.Mutex // serializes Compact; taken before mu, never under it

	mu      sync.Mutex
	wal     *walWriter
	walFrom uint64 // lowest live (uncovered) WAL segment sequence
	liveWAL int64  // bytes across live segments other than the active one
	mem     memtable
	blocks  []*blockHandle // ascending walFirst order
	closed  bool

	// Stats atomics, readable without mu.
	walBytes    atomic.Int64
	walSegments atomic.Int64
	sealedBytes atomic.Int64
	nBlocks     atomic.Int64
	memSpans    atomic.Int64

	compactions     atomic.Int64
	compactionDebt  atomic.Int64
	evictedBlocks   atomic.Int64
	evictedSpans    atomic.Int64
	tornTail        atomic.Int64
	walAppendErrors atomic.Int64
	sealErrors      atomic.Int64
	replayWALBatch  atomic.Int64
	replayWALSpans  atomic.Int64
	replayBlkSpans  atomic.Int64
}

// Open recovers (or creates) a shard directory and replays its contents in
// tier order — sealed blocks first, then live WAL segments — invoking
// apply for every recovered batch so the caller rebuilds its in-memory
// state through the identical ingest path a live batch takes. Crash debris
// is cleaned up on the way: *.tmp files are removed, and WAL segments
// already covered by a sealed block (crash between rename and delete) are
// deleted.
func Open(dir string, cfg Config, apply func(*transport.Batch)) (*Shard, ReplayStats, error) {
	cfg = cfg.withDefaults()
	var rs ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rs, fmt.Errorf("dstore: open shard: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, rs, fmt.Errorf("dstore: open shard: %w", err)
	}
	type blockFile struct {
		name              string
		walFirst, walLast uint64
	}
	var blockFiles []blockFile
	var walSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
			_ = os.Remove(filepath.Join(dir, name))
		case filepath.Ext(name) == ".blk":
			first, last, ok := parseBlockName(name)
			if !ok {
				return nil, rs, fmt.Errorf("dstore: unrecognized block file %s", name)
			}
			blockFiles = append(blockFiles, blockFile{name, first, last})
		case filepath.Ext(name) == ".log":
			seq, ok := parseWALName(name)
			if !ok {
				return nil, rs, fmt.Errorf("dstore: unrecognized wal file %s", name)
			}
			walSeqs = append(walSeqs, seq)
		}
	}
	sort.Slice(blockFiles, func(i, j int) bool {
		if blockFiles[i].walFirst != blockFiles[j].walFirst {
			return blockFiles[i].walFirst < blockFiles[j].walFirst
		}
		return blockFiles[i].walLast < blockFiles[j].walLast
	})
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	// A crash between a compaction's merged-block rename and its input
	// deletes leaves inputs whose WAL range is strictly contained in the
	// merged block's — discard them, the merged block carries their rows.
	kept := blockFiles[:0]
	for _, bf := range blockFiles {
		subsumed := false
		for _, other := range blockFiles {
			if other.name != bf.name && other.walFirst <= bf.walFirst && bf.walLast <= other.walLast {
				subsumed = true
				break
			}
		}
		if subsumed {
			_ = os.Remove(filepath.Join(dir, bf.name))
			continue
		}
		kept = append(kept, bf)
	}
	blockFiles = kept

	// Sealed blocks supersede the WAL segments they cover; a crash between
	// block rename and segment delete leaves both, so finish the delete now.
	var maxCovered, maxSeq uint64
	haveBlocks := len(blockFiles) > 0
	for _, bf := range blockFiles {
		if bf.walLast > maxCovered {
			maxCovered = bf.walLast
		}
		if bf.walLast > maxSeq {
			maxSeq = bf.walLast
		}
	}
	live := walSeqs[:0]
	for _, seq := range walSeqs {
		if haveBlocks && seq <= maxCovered {
			_ = os.Remove(filepath.Join(dir, walName(seq)))
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		live = append(live, seq)
	}

	s := &Shard{dir: dir, cfg: cfg}

	for _, bf := range blockFiles {
		path := filepath.Join(dir, bf.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, rs, fmt.Errorf("dstore: replay block: %w", err)
		}
		meta, spans, flows, profiles, err := unmarshalBlock(data)
		if err != nil {
			return nil, rs, fmt.Errorf("dstore: replay %s: %w", bf.name, err)
		}
		h := newBlockHandle(dir, meta, len(data))
		h.path = path
		s.blocks = append(s.blocks, h)
		s.sealedBytes.Add(h.bytes)
		s.nBlocks.Add(1)
		rs.Blocks++
		rs.BlockSpans += meta.nSpans
		rs.BlockFlows += meta.nFlows
		rs.BlockProfiles += meta.nProfiles
		if apply != nil {
			apply(&transport.Batch{Spans: spans, Flows: flows, Profiles: profiles})
		}
	}
	s.replayBlkSpans.Store(int64(rs.BlockSpans))

	// Live WAL segments replay into the memtable — the rows a crash caught
	// between append and seal.
	for _, seq := range live {
		path := filepath.Join(dir, walName(seq))
		payloads, torn, err := readWALSegment(path)
		if err != nil {
			return nil, rs, err
		}
		rs.WALSegments++
		rs.TornTailDropped += torn
		info, statErr := os.Stat(path)
		if statErr != nil {
			return nil, rs, fmt.Errorf("dstore: replay wal: %w", statErr)
		}
		s.liveWAL += info.Size()
		for _, payload := range payloads {
			b, err := transport.Decode(payload)
			if err != nil {
				return nil, rs, fmt.Errorf("dstore: replay %s: %w", filepath.Base(path), err)
			}
			s.mem.spans = append(s.mem.spans, b.Spans...)
			s.mem.flows = append(s.mem.flows, b.Flows...)
			s.mem.profiles = append(s.mem.profiles, b.Profiles...)
			rs.WALBatches++
			rs.WALSpans += len(b.Spans)
			if apply != nil {
				apply(b)
			}
		}
	}
	s.tornTail.Store(int64(rs.TornTailDropped))
	s.replayWALBatch.Store(int64(rs.WALBatches))
	s.replayWALSpans.Store(int64(rs.WALSpans))
	s.memSpans.Store(int64(len(s.mem.spans)))

	// Open a fresh active segment past everything on disk. Replayed live
	// segments stay on disk beneath it until the next seal covers them.
	activeSeq := maxSeq + 1
	w, err := createWAL(dir, activeSeq)
	if err != nil {
		return nil, rs, err
	}
	s.wal = w
	if len(live) > 0 {
		s.walFrom = live[0]
	} else {
		s.walFrom = activeSeq
	}
	s.walBytes.Store(s.liveWAL + w.bytes)
	s.walSegments.Store(int64(len(live) + 1))
	s.recomputeDebtLocked()
	return s, rs, nil
}

// Append durably logs one wire-encoded batch (payload) and stages its
// decoded rows (b) in the memtable, sealing when a threshold trips. The
// WAL write happens before the rows become queryable; a WAL write error is
// counted and ingest continues in-memory (availability over durability).
// A failed seal is counted too (Stats.SealErrors) and returned: the WAL
// and the memtable stay as they were, and the next Append retries it.
func (s *Shard) Append(payload []byte, b *transport.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("dstore: append on closed shard")
	}
	if err := s.wal.append(payload, s.cfg); err != nil {
		s.walAppendErrors.Add(1)
	}
	s.mem.spans = append(s.mem.spans, b.Spans...)
	s.mem.flows = append(s.mem.flows, b.Flows...)
	s.mem.profiles = append(s.mem.profiles, b.Profiles...)
	s.memSpans.Store(int64(len(s.mem.spans)))
	s.walBytes.Store(s.liveWAL + s.wal.bytes)
	if len(s.mem.spans) >= s.cfg.SealSpans || s.liveWAL+s.wal.bytes >= s.cfg.SealBytes {
		return s.sealLocked()
	}
	return nil
}

// sealLocked flushes the memtable into a new immutable block covering
// every live WAL segment, then retires those segments. Everything that can
// fail — writing and fsyncing the block, opening the next WAL segment, the
// rename that publishes the block — happens before any shard state moves:
// on an error the WAL segments and the memtable still hold every
// acknowledged row, so a crash replays them and the next seal retries.
// Callers hold mu.
func (s *Shard) sealLocked() error {
	if len(s.mem.spans) == 0 && len(s.mem.flows) == 0 && len(s.mem.profiles) == 0 {
		return nil
	}
	walFirst, walLast := s.walFrom, s.wal.seq
	data := marshalBlock(walFirst, walLast, s.mem.spans, s.mem.flows, s.mem.profiles, s.cfg.Encoding)
	minNS, maxNS := spanTimeRange(s.mem.spans)
	h := newBlockHandle(s.dir, blockMeta{
		walFirst: walFirst, walLast: walLast,
		nSpans: len(s.mem.spans), nFlows: len(s.mem.flows), nProfiles: len(s.mem.profiles),
		minNS: minNS, maxNS: maxNS, enc: s.cfg.Encoding,
	}, len(data))
	next, err := s.publishSealLocked(h, data)
	if err != nil {
		s.sealErrors.Add(1)
		return err
	}
	s.blocks = append(s.blocks, h)
	s.sealedBytes.Add(h.bytes)
	s.nBlocks.Add(1)

	// The block is durable; the WAL segments it covers are dead weight.
	_ = s.wal.close(false)
	for seq := walFirst; seq <= walLast; seq++ {
		_ = os.Remove(filepath.Join(s.dir, walName(seq)))
	}
	syncDir(s.dir)
	s.wal = next
	s.walFrom = next.seq
	s.liveWAL = 0
	s.mem.reset()
	s.memSpans.Store(0)
	s.walBytes.Store(next.bytes)
	s.walSegments.Store(1)
	s.recomputeDebtLocked()
	return nil
}

// publishSealLocked makes a sealed block durable under its final name and
// opens the WAL segment that follows it, or does neither: a failure at
// any step removes what the earlier steps created. Callers hold mu.
func (s *Shard) publishSealLocked(h *blockHandle, data []byte) (*walWriter, error) {
	tmp, err := writeBlockTmp(h.path, data)
	if err != nil {
		return nil, err
	}
	next, err := createWAL(s.dir, h.walLast+1)
	if err != nil {
		_ = os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, h.path); err != nil {
		_ = next.close(false)
		_ = os.Remove(next.path)
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("dstore: publish block: %w", err)
	}
	syncDir(s.dir) // the rename must be on disk before the WAL it covers is unlinked
	return next, nil
}

// newBlockHandle builds the handle for a block image of size bytes whose
// header is meta, at its canonical path under dir.
func newBlockHandle(dir string, meta blockMeta, size int) *blockHandle {
	return &blockHandle{
		path:     filepath.Join(dir, blockName(meta.walFirst, meta.walLast)),
		walFirst: meta.walFirst, walLast: meta.walLast,
		bytes: int64(size), spans: meta.nSpans, flows: meta.nFlows,
		profiles: meta.nProfiles, minNS: meta.minNS, maxNS: meta.maxNS,
		enc: meta.enc,
	}
}

// writeBlockTmp writes a block image to path+".tmp" and fsyncs it through
// the one descriptor it was written with, returning the tmp path for the
// caller to rename into place. Nothing is left behind on error. It touches
// no shard state, so compaction calls it without the lock.
func writeBlockTmp(path string, data []byte) (tmp string, err error) {
	tmp = path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("dstore: write block: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("dstore: write block: %w", err)
	}
	return tmp, nil
}

// BlockInfo describes one sealed block for scans and tests.
type BlockInfo struct {
	Path              string
	WALFirst, WALLast uint64
	Bytes             int64
	Spans             int
	Flows             int
	Profiles          int
	MinNS, MaxNS      int64
}

// Scan visits every sealed block in walFirst order, decoding each outside
// the shard lock (handles are refcounted so a concurrent compaction or
// eviction cannot delete a file mid-read), then the memtable tail. The
// visitor must not retain the row slices past its return.
func (s *Shard) Scan(visit func(info BlockInfo, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample) error) error {
	s.mu.Lock()
	handles := make([]*blockHandle, len(s.blocks))
	copy(handles, s.blocks)
	for _, h := range handles {
		h.refs++
	}
	s.mu.Unlock()
	defer s.releaseHandles(handles)

	for _, h := range handles {
		data, err := os.ReadFile(h.path)
		if err != nil {
			return fmt.Errorf("dstore: scan: %w", err)
		}
		meta, spans, flows, profiles, err := unmarshalBlock(data)
		if err != nil {
			return fmt.Errorf("dstore: scan %s: %w", filepath.Base(h.path), err)
		}
		info := BlockInfo{
			Path: h.path, WALFirst: meta.walFirst, WALLast: meta.walLast,
			Bytes: int64(len(data)), Spans: meta.nSpans, Flows: meta.nFlows,
			Profiles: meta.nProfiles, MinNS: meta.minNS, MaxNS: meta.maxNS,
		}
		if err := visit(info, spans, flows, profiles); err != nil {
			return err
		}
	}

	s.mu.Lock()
	memSpans := make([]*trace.Span, len(s.mem.spans))
	copy(memSpans, s.mem.spans)
	memFlows := make([]transport.FlowSample, len(s.mem.flows))
	copy(memFlows, s.mem.flows)
	memProfiles := make([]profiling.Sample, len(s.mem.profiles))
	copy(memProfiles, s.mem.profiles)
	s.mu.Unlock()
	if len(memSpans) > 0 || len(memFlows) > 0 || len(memProfiles) > 0 {
		minNS, maxNS := spanTimeRange(memSpans)
		info := BlockInfo{Path: "(memtable)", Spans: len(memSpans), Flows: len(memFlows), Profiles: len(memProfiles), MinNS: minNS, MaxNS: maxNS}
		return visit(info, memSpans, memFlows, memProfiles)
	}
	return nil
}

// Blocks returns metadata for every live sealed block, in walFirst order.
func (s *Shard) Blocks() []BlockInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]BlockInfo, 0, len(s.blocks))
	for _, h := range s.blocks {
		infos = append(infos, BlockInfo{
			Path: h.path, WALFirst: h.walFirst, WALLast: h.walLast,
			Bytes: h.bytes, Spans: h.spans, Flows: h.flows,
			Profiles: h.profiles, MinNS: h.minNS, MaxNS: h.maxNS,
		})
	}
	return infos
}

// releaseHandles drops scan references, deleting any file whose handle
// died (compacted away or evicted) while the scan held it.
func (s *Shard) releaseHandles(handles []*blockHandle) {
	s.mu.Lock()
	var remove []string
	for _, h := range handles {
		h.refs--
		if h.dead && h.refs == 0 {
			remove = append(remove, h.path)
		}
	}
	s.mu.Unlock()
	for _, path := range remove {
		_ = os.Remove(path)
	}
}

// EvictBefore drops every sealed block whose newest span is older than
// cutoffNS — whole-file eviction at block granularity, the ClickHouse
// TTL-by-part story. Memtable rows are never evicted directly; they age
// into blocks at the next seal and fall out then. Returns blocks and spans
// evicted.
func (s *Shard) EvictBefore(cutoffNS int64) (blocks, spans int) {
	s.mu.Lock()
	var remove []string
	kept := s.blocks[:0]
	for _, h := range s.blocks {
		if h.spans > 0 && h.maxNS < cutoffNS {
			blocks++
			spans += h.spans
			s.sealedBytes.Add(-h.bytes)
			s.nBlocks.Add(-1)
			h.dead = true
			if h.refs == 0 {
				remove = append(remove, h.path)
			}
			continue
		}
		kept = append(kept, h)
	}
	s.blocks = kept
	s.evictedBlocks.Add(int64(blocks))
	s.evictedSpans.Add(int64(spans))
	s.recomputeDebtLocked()
	s.mu.Unlock()
	for _, path := range remove {
		_ = os.Remove(path)
	}
	if blocks > 0 {
		syncDir(s.dir)
	}
	return blocks, spans
}

// Close seals the memtable and syncs everything — the clean-shutdown path.
// A reopen after Close replays zero WAL batches.
func (s *Shard) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.sealLocked(); err != nil {
		_ = s.wal.close(false)
		return err
	}
	// The active segment is empty (seal recreated it, or nothing was ever
	// written); remove it so a clean directory holds only blocks.
	if err := s.wal.close(true); err != nil {
		return err
	}
	if s.wal.bytes == walHeaderSize {
		_ = os.Remove(s.wal.path)
		syncDir(s.dir)
		s.walBytes.Store(0)
		s.walSegments.Store(0)
	}
	return nil
}

// Abort closes file handles WITHOUT sealing or syncing — the crash
// simulation used by kill-and-replay tests. Whatever the OS already has of
// the WAL is what recovery gets.
func (s *Shard) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.wal.close(false)
}

// DiskBytes is the shard's true on-disk footprint: live WAL bytes plus
// sealed block bytes. Safe to call concurrently with ingest.
func (s *Shard) DiskBytes() int64 { return s.walBytes.Load() + s.sealedBytes.Load() }

// Stats snapshots the shard's tier counters.
func (s *Shard) Stats() Stats {
	return Stats{
		WALBytes:         s.walBytes.Load(),
		WALSegments:      s.walSegments.Load(),
		SealedBytes:      s.sealedBytes.Load(),
		Blocks:           s.nBlocks.Load(),
		MemSpans:         s.memSpans.Load(),
		Compactions:      s.compactions.Load(),
		CompactionDebt:   s.compactionDebt.Load(),
		EvictedBlocks:    s.evictedBlocks.Load(),
		EvictedSpans:     s.evictedSpans.Load(),
		TornTailDropped:  s.tornTail.Load(),
		WALAppendErrors:  s.walAppendErrors.Load(),
		SealErrors:       s.sealErrors.Load(),
		ReplayWALBatches: s.replayWALBatch.Load(),
		ReplayWALSpans:   s.replayWALSpans.Load(),
		ReplayBlockSpans: s.replayBlkSpans.Load(),
	}
}
