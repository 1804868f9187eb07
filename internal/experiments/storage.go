package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"deepflow/internal/dstore"
	"deepflow/internal/k8s"
	"deepflow/internal/server"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// StorageEncRow is one sealed-block encoding's measured on-disk footprint
// for the same span corpus.
type StorageEncRow struct {
	Encoding     dstore.BlockEncoding
	BlockBytes   int
	BytesPerSpan float64
}

// StorageReplayRow is one recovery path's measured cold-start rate.
type StorageReplayRow struct {
	Path        string // "wal" or "blocks"
	Spans       int
	Elapsed     time.Duration
	SpansPerSec float64
}

// StorageResult is the machine-readable summary emitted to
// BENCH_storage.json.
type StorageResult struct {
	Spans                  int                `json:"spans"`
	BytesPerSpan           map[string]float64 `json:"disk_bytes_per_span_by_encoding"`
	DeltaSmallest          bool               `json:"delta_varint_smallest"`
	WALBytesPerSpan        float64            `json:"wal_bytes_per_span"`
	WALReplaySpansPerSec   float64            `json:"wal_replay_spans_per_sec"`
	BlockReplaySpansPerSec float64            `json:"block_replay_spans_per_sec"`
	CleanRestartWALBatches int                `json:"clean_restart_wal_batches"`
	// Codec is the cost of the three block operations ingest and recovery
	// are made of, over SealSpans-sized blocks of the corpus.
	Codec []StorageCodecRow `json:"block_codec"`
}

// StorageCodecRow is one sealed-block operation's measured cost: sealing a
// memtable into a block image, decoding one back into spans, and merging
// CompactFanIn images into one (compaction), each per span handled.
type StorageCodecRow struct {
	Op            string  `json:"op"` // "seal", "decode" or "merge"
	Spans         int     `json:"spans"`
	NsPerSpan     float64 `json:"ns_per_span"`
	AllocsPerSpan float64 `json:"allocs_per_span"`
}

// measureBlockCodec times seal, decode and merge under the default
// encoding: best of three passes for the time (interference only ever
// slows a pass), the first pass's malloc count for the allocations (it
// repeats exactly). The merged images are checked against sealing the
// same rows in one go, so a fast wrong merge cannot report a number.
func measureBlockCodec(spans []*trace.Span) ([]StorageCodecRow, error) {
	cfg := dstore.DefaultConfig()
	var blocks [][]*trace.Span
	for off := 0; off < len(spans); off += cfg.SealSpans {
		blocks = append(blocks, spans[off:min(off+cfg.SealSpans, len(spans))])
	}
	measure := func(op string, n int, pass func() error) (StorageCodecRow, error) {
		row := StorageCodecRow{Op: op, Spans: n}
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := pass(); err != nil {
				return row, fmt.Errorf("storage: %s: %w", op, err)
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(n)
			runtime.ReadMemStats(&after)
			if i == 0 {
				row.AllocsPerSpan = float64(after.Mallocs-before.Mallocs) / float64(n)
			}
			if i == 0 || ns < row.NsPerSpan {
				row.NsPerSpan = ns
			}
		}
		return row, nil
	}

	images := make([][]byte, len(blocks))
	seal, err := measure("seal", len(spans), func() error {
		for i, blk := range blocks {
			images[i] = dstore.EncodeBlock(blk, nil, nil, cfg.Encoding)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decode, err := measure("decode", len(spans), func() error {
		for _, img := range images {
			if _, _, _, err := dstore.DecodeBlock(img); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := []StorageCodecRow{seal, decode}
	if len(images) < 2 {
		return rows, nil // nothing to merge in a one-block corpus
	}
	var merged [][]byte
	merge, err := measure("merge", len(spans), func() error {
		merged = merged[:0]
		for at := 0; at < len(images); at += cfg.CompactFanIn {
			img, err := dstore.MergeBlocks(images[at:min(at+cfg.CompactFanIn, len(images))]...)
			if err != nil {
				return err
			}
			merged = append(merged, img)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, img := range merged {
		at := i * cfg.CompactFanIn * cfg.SealSpans
		want := dstore.EncodeBlock(spans[at:min(at+cfg.CompactFanIn*cfg.SealSpans, len(spans))], nil, nil, cfg.Encoding)
		if !bytes.Equal(img, want) {
			return nil, fmt.Errorf("storage: merging blocks %d… gives %d bytes that differ from sealing their %d rows at once",
				i*cfg.CompactFanIn, len(img), len(want))
		}
	}
	return append(rows, merge), nil
}

// storageCorpus reuses the Fig. 14 synthetic-span generator so the durable
// tier is measured on the same production-shaped data as the column-store
// encodings it extends.
func storageCorpus(spanCount, podCardinality int) []*trace.Span {
	cluster := synthCluster(podCardinality)
	pods := cluster.Pods()
	rng := rand.New(rand.NewSource(99))
	spans := make([]*trace.Span, spanCount)
	for i := range spans {
		spans[i] = synthSpan(rng, cluster, pods, i)
	}
	return spans
}

// MeasureStorage runs the durable-tier experiment: bytes/span on disk for
// each sealed-block encoding, then the cold-start recovery rate of both
// paths — replaying a pure WAL (the crash case) and replaying sealed
// blocks (the clean-restart case).
func MeasureStorage(spanCount, podCardinality int, dir string) ([]StorageEncRow, []StorageReplayRow, *StorageResult, error) {
	spans := storageCorpus(spanCount, podCardinality)

	res := &StorageResult{Spans: spanCount, BytesPerSpan: map[string]float64{}}
	var encRows []StorageEncRow
	for _, enc := range []dstore.BlockEncoding{dstore.EncDelta, dstore.EncDirect, dstore.EncLowCard} {
		blk := dstore.EncodeBlock(spans, nil, nil, enc)
		row := StorageEncRow{Encoding: enc, BlockBytes: len(blk),
			BytesPerSpan: float64(len(blk)) / float64(spanCount)}
		encRows = append(encRows, row)
		res.BytesPerSpan[enc.String()] = row.BytesPerSpan
	}
	res.DeltaSmallest = encRows[0].BlockBytes < encRows[1].BlockBytes &&
		encRows[0].BlockBytes < encRows[2].BlockBytes
	var err error
	if res.Codec, err = measureBlockCodec(spans); err != nil {
		return nil, nil, nil, err
	}

	// Batch the corpus the way agents ship it, into one durable shard that
	// never seals — everything stays in the WAL.
	cfg := dstore.DefaultConfig()
	cfg.Sync = dstore.SyncNever
	cfg.SealSpans = spanCount + 1
	cfg.SealBytes = 1 << 62
	sh, _, err := dstore.Open(filepath.Join(dir, "shard-0"), cfg, func(*transport.Batch) {})
	if err != nil {
		return nil, nil, nil, err
	}
	const batchSize = 256
	for off, seq := 0, uint64(0); off < len(spans); off += batchSize {
		end := off + batchSize
		if end > len(spans) {
			end = len(spans)
		}
		seq++
		b := &transport.Batch{Host: "bench", Seq: seq, Spans: spans[off:end]}
		if err := sh.Append(transport.Encode(b), b); err != nil {
			return nil, nil, nil, err
		}
	}
	res.WALBytesPerSpan = float64(sh.DiskBytes()) / float64(spanCount)
	sh.Abort() // crash: nothing sealed, recovery must replay the whole WAL

	timeOpen := func(path string) (*dstore.Shard, dstore.ReplayStats, time.Duration, error) {
		replayed := 0
		start := time.Now()
		s, rs, err := dstore.Open(path, cfg, func(b *transport.Batch) { replayed += len(b.Spans) })
		return s, rs, time.Since(start), err
	}

	sh, rs, walElapsed, err := timeOpen(filepath.Join(dir, "shard-0"))
	if err != nil {
		return nil, nil, nil, err
	}
	if got := rs.WALSpans + rs.BlockSpans; got != spanCount {
		sh.Abort()
		return nil, nil, nil, fmt.Errorf("storage: WAL replay recovered %d spans, want %d", got, spanCount)
	}
	replayRows := []StorageReplayRow{{
		Path: "wal", Spans: rs.WALSpans, Elapsed: walElapsed,
		SpansPerSec: float64(rs.WALSpans) / walElapsed.Seconds(),
	}}
	res.WALReplaySpansPerSec = replayRows[0].SpansPerSec
	if err := sh.Close(); err != nil { // clean shutdown: seal into blocks
		return nil, nil, nil, err
	}

	sh, rs, blkElapsed, err := timeOpen(filepath.Join(dir, "shard-0"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer sh.Abort()
	if rs.BlockSpans != spanCount {
		return nil, nil, nil, fmt.Errorf("storage: block replay recovered %d spans, want %d", rs.BlockSpans, spanCount)
	}
	replayRows = append(replayRows, StorageReplayRow{
		Path: "blocks", Spans: rs.BlockSpans, Elapsed: blkElapsed,
		SpansPerSec: float64(rs.BlockSpans) / blkElapsed.Seconds(),
	})
	res.BlockReplaySpansPerSec = replayRows[1].SpansPerSec
	res.CleanRestartWALBatches = rs.WALBatches
	return encRows, replayRows, res, nil
}

// Storage formats the durable-tier experiment: the §3.4 smart-encoding
// claim carried down to the persistent tier, plus measured cold-start
// recovery rates for both paths.
func Storage(spanCount, podCardinality int, dir string) (*Table, error) {
	encRows, replayRows, res, err := MeasureStorage(spanCount, podCardinality, dir)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "storage",
		Title:   fmt.Sprintf("Durable tier: sealed-block footprint and cold-start replay (%d spans, %d pods)", spanCount, podCardinality),
		Columns: []string{"measure", "bytes or spans", "bytes/span or spans/s"},
		Notes: []string{
			"delta-varint is the sealed-block default: delta+varint int columns + dictionary strings; direct materializes fixed-width ints",
			fmt.Sprintf("WAL holds raw wire batches (%.1f B/span) until a seal compresses them into a block", res.WALBytesPerSpan),
			"block replay pays columnar decode for the smaller footprint; clean shutdown seals everything, so a restart replays zero WAL batches",
			fmt.Sprintf("codec rows: %d-span blocks, fan-in %d; merge concatenates column bytes (no span is decoded) and is checked byte for byte against sealing the same rows at once",
				dstore.DefaultConfig().SealSpans, dstore.DefaultConfig().CompactFanIn),
		},
		JSON: res,
	}
	for _, r := range encRows {
		t.AddRow("block/"+r.Encoding.String(), r.BlockBytes, fmt.Sprintf("%.1f B/span", r.BytesPerSpan))
	}
	for _, r := range replayRows {
		t.AddRow("replay/"+r.Path, r.Spans, fmt.Sprintf("%.0f spans/s", r.SpansPerSec))
	}
	for _, r := range res.Codec {
		t.AddRow("codec/"+r.Op, r.Spans, fmt.Sprintf("%.0f ns/span, %.3f allocs/span", r.NsPerSpan, r.AllocsPerSpan))
	}
	return t, nil
}

// storageServerRoundTrip is used by the always-on correctness test: ingest
// through a durable sharded server, kill it, recover, and compare the span
// list — the experiment-side mirror of the server package's
// kill-and-replay determinism gate.
func storageServerRoundTrip(spanCount, podCardinality, shards int, dir string) (before, after int, err error) {
	spans := storageCorpus(spanCount, podCardinality)
	cluster := synthCluster(podCardinality)
	reg := server.NewResourceRegistry([]*k8s.Cluster{cluster}, nil)

	cfg := dstore.DefaultConfig()
	cfg.Sync = dstore.SyncNever
	cfg.SealSpans = 512

	srv := server.NewSharded(reg, server.EncodingSmart, 0, shards)
	if _, err := srv.AttachDurable(dir, cfg); err != nil {
		return 0, 0, err
	}
	for _, blob := range ingestBatches(spans, 128) {
		if err := srv.IngestBatch(blob); err != nil {
			return 0, 0, err
		}
	}
	srv.Drain()
	before = srv.SpanCount()
	srv.Kill()

	srv2 := server.NewSharded(reg, server.EncodingSmart, 0, shards)
	defer srv2.Close()
	if _, err := srv2.AttachDurable(dir, cfg); err != nil {
		return before, 0, err
	}
	return before, srv2.SpanCount(), nil
}
