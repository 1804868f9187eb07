package dstore

// Size-tiered compaction: sealed blocks are bucketed into tiers by
// log2(size), and whenever CompactFanIn adjacent blocks (in walFirst
// order) share a tier and an encoding they merge into one block covering
// their combined WAL range — row order preserved, so a compacted directory
// replays the identical ingest sequence.
//
// The merge is a concatenation of column bytes, not a decode and re-encode
// (mergeBlocks below): no span is materialized, and the output is byte for
// byte what sealing the concatenated rows would have written. Inputs are
// read, merged, written to a .tmp file and fsynced outside the shard lock;
// the lock is taken only to re-validate the run (retention may have
// evicted an input meanwhile), rename the file into place and swap the
// handles, so scans, retention and stats scrapes never wait on a disk
// flush. Old files retire through the same refcount protocol scans use.
// One compaction runs per shard at a time (compactMu).

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"

	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// compactTierBase anchors tier 0: blocks under 32 KiB share the bottom
// tier, and each tier above doubles the size range.
const compactTierBase = 32 << 10

// compactTier buckets a block size into its size tier.
func compactTier(size int64) int {
	if size < compactTierBase {
		return 0
	}
	return bits.Len64(uint64(size / compactTierBase))
}

// compactCandidateLocked finds the first run of cfg.CompactFanIn adjacent
// blocks sharing a tier and an encoding, or nil. Callers hold mu.
func (s *Shard) compactCandidateLocked() []*blockHandle {
	fanIn := s.cfg.CompactFanIn
	for i := 0; i+fanIn <= len(s.blocks); i++ {
		first := s.blocks[i]
		tier := compactTier(first.bytes)
		run := 1
		for run < fanIn && compactTier(s.blocks[i+run].bytes) == tier && s.blocks[i+run].enc == first.enc {
			run++
		}
		if run == fanIn {
			return s.blocks[i : i+fanIn : i+fanIn]
		}
	}
	return nil
}

// recomputeDebtLocked refreshes the compaction-debt gauge: blocks above
// one per occupied size tier, i.e. how many merge inputs are pending.
// Callers hold mu.
func (s *Shard) recomputeDebtLocked() {
	tiers := make(map[int]bool, 8)
	for _, h := range s.blocks {
		tiers[compactTier(h.bytes)] = true
	}
	s.compactionDebt.Store(int64(len(s.blocks) - len(tiers)))
}

// Compact runs compaction steps until no run of CompactFanIn same-tier
// adjacent blocks remains, returning the number of merges performed. The
// ingest path calls it after every seal; tests call it directly.
func (s *Shard) Compact() (merges int, err error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	for {
		did, err := s.compactOnce()
		if err != nil {
			return merges, err
		}
		if !did {
			return merges, nil
		}
		merges++
	}
}

// compactOnce performs one merge step if a candidate run exists. Callers
// hold compactMu.
func (s *Shard) compactOnce() (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, nil
	}
	run := s.compactCandidateLocked()
	if run == nil {
		s.mu.Unlock()
		return false, nil
	}
	inputs := make([]*blockHandle, len(run))
	copy(inputs, run)
	for _, h := range inputs {
		h.refs++
	}
	s.mu.Unlock()
	defer s.releaseHandles(inputs)

	// Read, merge, write and fsync outside the lock: block files are
	// immutable and the refs keep them on disk even if eviction races us.
	images := make([][]byte, len(inputs))
	for i, h := range inputs {
		data, err := os.ReadFile(h.path)
		if err != nil {
			return false, fmt.Errorf("dstore: compact read: %w", err)
		}
		images[i] = data
	}
	data, meta, err := mergeBlocks(images...)
	if err != nil {
		return false, fmt.Errorf("dstore: compact %s…%s: %w",
			filepath.Base(inputs[0].path), filepath.Base(inputs[len(inputs)-1].path), err)
	}
	merged := newBlockHandle(s.dir, meta, len(data))
	tmp, err := writeBlockTmp(merged.path, data)
	if err != nil {
		return false, err
	}

	s.mu.Lock()
	// Re-validate: the shard must still be open and the run intact and
	// alive (eviction may have removed an input while we merged). If not,
	// drop the attempt.
	at := -1
	for i := range s.blocks {
		if s.blocks[i] == inputs[0] {
			at = i
			break
		}
	}
	intact := !s.closed && at >= 0 && at+len(inputs) <= len(s.blocks)
	if intact {
		for i, h := range inputs {
			if s.blocks[at+i] != h || h.dead {
				intact = false
				break
			}
		}
	}
	if !intact {
		s.mu.Unlock()
		_ = os.Remove(tmp)
		return false, nil
	}
	if err := os.Rename(tmp, merged.path); err != nil {
		s.mu.Unlock()
		_ = os.Remove(tmp)
		return false, fmt.Errorf("dstore: publish block: %w", err)
	}
	// Swap the run for the merged block; input files are removed once the
	// last reference (ours, or a concurrent scan's) drops. A crash between
	// the merged block's rename and these deletes leaves subsumed inputs on
	// disk — Open detects containment and discards them.
	for _, h := range inputs {
		h.dead = true
	}
	rest := make([]*blockHandle, 0, len(s.blocks)-len(inputs)+1)
	rest = append(rest, s.blocks[:at]...)
	rest = append(rest, merged)
	rest = append(rest, s.blocks[at+len(inputs):]...)
	s.blocks = rest
	s.sealedBytes.Add(merged.bytes)
	s.nBlocks.Add(1)
	for _, h := range inputs {
		s.sealedBytes.Add(-h.bytes)
	}
	s.nBlocks.Add(-int64(len(inputs)))
	s.compactions.Add(1)
	s.recomputeDebtLocked()
	s.mu.Unlock()

	syncDir(s.dir)
	return true, nil
}

// mergeBlocks concatenates block images, in order, into the image that
// marshalBlock would produce for their concatenated rows — without
// decoding a row. Integer columns are copied verbatim except that, under
// the delta encoding, each later input's first delta is rebased on the
// previous input's last value; LowCardinality dictionaries are unioned in
// first-appearance order and only the index varints rewritten; the
// per-span rest, flow and profile sections are walked to find their ends
// and spliced. Every input is validated exactly as decoding it would
// validate it, so an image that does not decode does not merge. Inputs
// must share one encoding.
func mergeBlocks(images ...[]byte) ([]byte, blockMeta, error) {
	var m blockMerger
	if len(images) == 0 {
		return nil, m.out, fmt.Errorf("dstore: merge of no blocks")
	}
	m.ins = make([]mergeInput, len(images))
	size := 0
	for i, img := range images {
		meta, r, err := openBlock(img)
		if err != nil {
			return nil, m.out, fmt.Errorf("dstore: merge input %d: %w", i, err)
		}
		if i > 0 && meta.enc != m.ins[0].meta.enc {
			return nil, m.out, fmt.Errorf("dstore: merge of mixed encodings (%s, %s)", m.ins[0].meta.enc, meta.enc)
		}
		m.ins[i] = mergeInput{meta: meta, r: r}
		if meta.nSpans > 0 {
			if m.out.nSpans == 0 || meta.minNS < m.out.minNS {
				m.out.minNS = meta.minNS
			}
			if m.out.nSpans == 0 || meta.maxNS > m.out.maxNS {
				m.out.maxNS = meta.maxNS
			}
		}
		m.out.nSpans += meta.nSpans
		m.out.nFlows += meta.nFlows
		m.out.nProfiles += meta.nProfiles
		size += len(img)
	}
	m.out.walFirst, m.out.walLast = m.ins[0].meta.walFirst, m.ins[len(m.ins)-1].meta.walLast
	m.out.enc = m.ins[0].meta.enc

	m.buf = appendBlockHeader(make([]byte, 0, size+size/16), m.out)
	for _, step := range []func() error{m.intColumns, m.strColumns, m.rowSections} {
		if err := step(); err != nil {
			return nil, m.out, err
		}
	}
	return appendBlockCRC(m.buf), m.out, nil
}

// mergeInput is one block image being merged: its header and a strict
// cursor that each step advances past the part of the body it consumed.
type mergeInput struct {
	meta blockMeta
	r    trace.WireReader
}

// blockMerger carries one merge: the inputs, the output header, and the
// output image so far. Its steps run once each, in body order.
type blockMerger struct {
	ins []mergeInput
	out blockMeta
	buf []byte
}

func (m *blockMerger) fail(i int, what string, err error) error {
	return fmt.Errorf("dstore: merge input %d: block %s: %w", i, what, err)
}

// intColumns copies the integer columns. Walking a column's varints gives
// its extent, its value range (checked against the field and, for
// start_ns, the header's time range) and, under delta, its last value —
// the base the next input's first delta is rewritten against.
func (m *blockMerger) intColumns() error {
	delta := m.out.enc == EncDelta
	for c := range spanIntCols {
		def := &spanIntCols[c]
		last := int64(0) // the merged column's last value so far
		for i := range m.ins {
			meta, r := &m.ins[i].meta, &m.ins[i].r
			if meta.nSpans == 0 {
				continue
			}
			start := r.Pos
			first := r.Varint()
			rest := r.Pos
			v, lo, hi := first, first, first
			for k := 1; k < meta.nSpans; k++ {
				d := r.Varint()
				if delta {
					v += d
				} else {
					v = d
				}
				lo, hi = min(lo, v), max(hi, v)
			}
			if lo < def.lo || hi > def.hi {
				r.Fail("value outside its field")
			}
			if r.Err != nil {
				return m.fail(i, "column "+def.name, r.Err)
			}
			if c == startNSCol && (lo != meta.minNS || hi != meta.maxNS) {
				return m.fail(i, "header", fmt.Errorf("time range [%d,%d] but spans cover [%d,%d]", meta.minNS, meta.maxNS, lo, hi))
			}
			if delta {
				m.buf = binary.AppendVarint(m.buf, first-last)
				m.buf = append(m.buf, r.Data[rest:r.Pos]...)
				last = v
			} else {
				m.buf = append(m.buf, r.Data[start:r.Pos]...)
			}
		}
	}
	return nil
}

// strColumns merges the string columns: raw strings are copied; a
// dictionary column takes two passes over the inputs, one to union the
// dictionaries and one to rewrite row indexes into the union.
func (m *blockMerger) strColumns() error {
	var (
		index  dictIndex
		dict   []byte   // the merged dictionary's entries, serialized
		remap  []uint32 // each input's dictionary IDs as merged IDs, back to back
		starts []int    // where each input's IDs start in remap
		owner  []uint32 // per merged ID, the last input (+1) that listed it
	)
	for c := range spanStrCols {
		name := "column " + spanStrCols[c].name
		if m.out.enc == EncDirect {
			for i := range m.ins {
				r := &m.ins[i].r
				start := r.Pos
				for k := 0; k < m.ins[i].meta.nSpans; k++ {
					r.Bytes()
				}
				if r.Err != nil {
					return m.fail(i, name, r.Err)
				}
				m.buf = append(m.buf, r.Data[start:r.Pos]...)
			}
			continue
		}
		// An input's entries keep their relative order, so appending the
		// ones not yet seen is first-appearance order for the concatenated
		// rows.
		index.reset()
		dict, remap, starts, owner = dict[:0], remap[:0], starts[:0], owner[:0]
		for i := range m.ins {
			r := &m.ins[i].r
			starts = append(starts, len(remap))
			n := readDictLen(r, m.ins[i].meta.nSpans)
			for j := uint64(0); j < n && r.Err == nil; j++ {
				from := r.Pos
				id, fresh := index.intern(r.Bytes())
				if fresh {
					dict = append(dict, r.Data[from:r.Pos]...)
					owner = append(owner, 0)
				}
				if owner[id] == uint32(i+1) {
					r.Fail("duplicate dictionary entry")
				}
				owner[id] = uint32(i + 1)
				remap = append(remap, id)
			}
			if r.Err != nil {
				return m.fail(i, name, r.Err)
			}
		}
		starts = append(starts, len(remap))
		m.buf = binary.AppendUvarint(m.buf, uint64(len(owner)))
		m.buf = append(m.buf, dict...)
		for i := range m.ins {
			r := &m.ins[i].r
			ids := remap[starts[i]:starts[i+1]]
			order := indexOrder{entries: uint64(len(ids))}
			for k := 0; k < m.ins[i].meta.nSpans; k++ {
				id := r.Uvarint()
				if !order.ok(id) {
					r.Fail("dictionary index out of first-appearance order")
					break
				}
				m.buf = binary.AppendUvarint(m.buf, uint64(ids[id]))
			}
			if !order.done() {
				r.Fail("unused dictionary entry")
			}
			if r.Err != nil {
				return m.fail(i, name, r.Err)
			}
		}
	}
	return nil
}

// rowSections splices the three row-major sections — per-span rest, flows,
// profiles. Each input's are walked once (validating, building nothing) to
// find where they end; then the output takes every input's rest, every
// input's flows, every input's profiles.
func (m *blockMerger) rowSections() error {
	cuts := make([][4]int, len(m.ins))
	for i := range m.ins {
		meta, r := &m.ins[i].meta, &m.ins[i].r
		r.Discard = true
		cuts[i][0] = r.Pos
		for k := 0; k < meta.nSpans && r.Err == nil; k++ {
			r.Custom()
			r.NetMetrics()
		}
		cuts[i][1] = r.Pos
		for k := 0; k < meta.nFlows && r.Err == nil; k++ {
			transport.DecodeFlowSample(r)
		}
		cuts[i][2] = r.Pos
		for k := 0; k < meta.nProfiles && r.Err == nil; k++ {
			transport.DecodeProfileSample(r)
		}
		cuts[i][3] = r.Pos
		if r.Err != nil {
			return m.fail(i, "rows", r.Err)
		}
		if r.Pos != len(r.Data) {
			return m.fail(i, "rows", fmt.Errorf("%d trailing bytes", len(r.Data)-r.Pos))
		}
	}
	for section := 0; section < 3; section++ {
		for i := range m.ins {
			m.buf = append(m.buf, m.ins[i].r.Data[cuts[i][section]:cuts[i][section+1]]...)
		}
	}
	return nil
}
