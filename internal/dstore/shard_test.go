package dstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"deepflow/internal/profiling"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// testBatch builds batch #seq with a deterministic handful of rows and its
// wire payload — exactly what the ingest worker hands Append.
func testBatch(seq int) (*transport.Batch, []byte) {
	var spans []*trace.Span
	for j := 0; j < 5; j++ {
		spans = append(spans, testSpan(seq*5+j))
	}
	b := &transport.Batch{Host: "node-1", Seq: uint64(seq), Spans: spans}
	if seq%2 == 0 {
		_, flows, profiles := testRows(4)
		b.Flows = flows
		b.Profiles = profiles
	}
	return b, transport.Encode(b)
}

func appendBatches(t *testing.T, s *Shard, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		b, payload := testBatch(i)
		if err := s.Append(payload, b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// collect scans the shard into flat row slices (blocks then memtable).
func collect(t *testing.T, s *Shard) ([]*trace.Span, []transport.FlowSample, []profiling.Sample) {
	t.Helper()
	var spans []*trace.Span
	var flows []transport.FlowSample
	var profiles []profiling.Sample
	err := s.Scan(func(info BlockInfo, bs []*trace.Span, bf []transport.FlowSample, bp []profiling.Sample) error {
		spans = append(spans, bs...)
		flows = append(flows, bf...)
		profiles = append(profiles, bp...)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return spans, flows, profiles
}

func sameSpans(a, b []*trace.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(spanWire(a[i]), spanWire(b[i])) {
			return false
		}
	}
	return true
}

func TestShardSealAndScan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 12, SealBytes: 1 << 30}
	s, rs, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs != (ReplayStats{}) {
		t.Fatalf("fresh dir replayed %+v", rs)
	}
	appendBatches(t, s, 0, 10) // 50 spans, seal every 3 batches (15 ≥ 12)
	st := s.Stats()
	if st.Blocks == 0 {
		t.Fatal("no blocks sealed")
	}
	if st.Blocks != int64(len(s.Blocks())) {
		t.Fatalf("stats report %d blocks, listing has %d", st.Blocks, len(s.Blocks()))
	}
	spans, _, _ := collect(t, s)
	var want []*trace.Span
	for i := 0; i < 10; i++ {
		b, _ := testBatch(i)
		want = append(want, b.Spans...)
	}
	if !sameSpans(spans, want) {
		t.Fatal("scan order differs from append order")
	}
	if got := s.DiskBytes(); got <= 0 {
		t.Fatalf("DiskBytes = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardCleanCloseZeroReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncGroup, SealSpans: 1 << 30, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, 0, 6)
	before, bf, bp := collect(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var applied int
	s2, rs, err := Open(dir, cfg, func(b *transport.Batch) { applied += len(b.Spans) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rs.WALBatches != 0 || rs.WALSegments != 0 {
		t.Fatalf("clean shutdown replayed %d WAL batches from %d segments", rs.WALBatches, rs.WALSegments)
	}
	if rs.BlockSpans != len(before) || applied != len(before) {
		t.Fatalf("block replay returned %d spans (applied %d), want %d", rs.BlockSpans, applied, len(before))
	}
	after, af, ap := collect(t, s2)
	if !sameSpans(after, before) || len(af) != len(bf) || len(ap) != len(bp) {
		t.Fatal("reopened shard differs from pre-close state")
	}
}

func TestShardAbortReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 1 << 30, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, 0, 8)
	before, _, _ := collect(t, s)
	s.Abort() // crash: no seal, no sync

	var order []uint64
	s2, rs, err := Open(dir, cfg, func(b *transport.Batch) { order = append(order, b.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rs.WALBatches != 8 || rs.WALSpans != len(before) || rs.Blocks != 0 {
		t.Fatalf("replay = %+v, want 8 WAL batches / %d spans / 0 blocks", rs, len(before))
	}
	for i, seq := range order {
		if seq != uint64(i) {
			t.Fatalf("batches replayed out of order: %v", order)
		}
	}
	after, _, _ := collect(t, s2)
	if !sameSpans(after, before) {
		t.Fatal("replayed rows differ from pre-crash rows")
	}
}

func TestShardTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 1 << 30, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, 0, 4)
	active := s.wal.path
	s.Abort()

	// Shear 3 bytes off the active segment: the 4th batch becomes a torn
	// write, the first three replay.
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(active, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rs, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rs.WALBatches != 3 || rs.TornTailDropped != 1 {
		t.Fatalf("replay = %+v, want 3 batches with 1 torn tail", rs)
	}
	var want []*trace.Span
	for i := 0; i < 3; i++ {
		b, _ := testBatch(i)
		want = append(want, b.Spans...)
	}
	got, _, _ := collect(t, s2)
	if !sameSpans(got, want) {
		t.Fatal("surviving rows differ")
	}
}

func TestShardMidFileCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 1 << 30, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, 0, 4)
	active := s.wal.path
	s.Abort()

	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderSize+walFrameSize+1] ^= 0xff // inside batch 0's payload
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, cfg, nil); err == nil {
		t.Fatal("mid-file corruption opened without error")
	}
}

func TestShardEvictBefore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 5, SealBytes: 1 << 30, CompactFanIn: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, 0, 6) // one block per batch (5 spans each)
	blocks := s.Blocks()
	if len(blocks) != 6 {
		t.Fatalf("expected 6 blocks, have %d", len(blocks))
	}
	// Cut between block 2 and 3: spans are time-ordered by construction.
	cutoff := blocks[3].MinNS
	gone, spans := s.EvictBefore(cutoff)
	if gone != 3 || spans != 15 {
		t.Fatalf("evicted %d blocks / %d spans, want 3 / 15", gone, spans)
	}
	st := s.Stats()
	if st.Blocks != 3 || st.EvictedBlocks != 3 || st.EvictedSpans != 15 {
		t.Fatalf("stats after evict: %+v", st)
	}
	// Eviction is idempotent at the same cutoff.
	if gone, _ := s.EvictBefore(cutoff); gone != 0 {
		t.Fatalf("second eviction dropped %d blocks", gone)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Evicted data stays gone across reopen.
	s2, rs, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rs.BlockSpans != 15 {
		t.Fatalf("reopen replayed %d spans, want 15", rs.BlockSpans)
	}
}

func TestShardDiskBytesMatchesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 7, SealBytes: 1 << 30}
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendBatches(t, s, 0, 9)
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if got := s.DiskBytes(); got != onDisk {
		t.Fatalf("DiskBytes = %d, directory holds %d", got, onDisk)
	}
}

// failingSeals opens a fresh shard whose seals fail the way an unwritable
// directory makes them fail — the block's tmp file cannot be opened for
// writing — by parking a directory on that path, which stops root too. It
// appends five batches, three of which try to seal, and returns the shard,
// the rows it acknowledged and a func that makes the directory writable.
func failingSeals(t *testing.T, dir string, cfg Config) (s *Shard, want []*trace.Span, unblock func()) {
	t.Helper()
	s, _, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, blockName(1, 1)+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	sealErrs := 0
	for i := 0; i < 5; i++ {
		b, payload := testBatch(i)
		want = append(want, b.Spans...)
		if err := s.Append(payload, b); err != nil {
			sealErrs++
		}
	}
	st := s.Stats()
	if sealErrs != 3 || st.SealErrors != 3 {
		t.Fatalf("Append returned %d seal errors, Stats.SealErrors = %d, want 3 and 3", sealErrs, st.SealErrors)
	}
	if st.Blocks != 0 || st.MemSpans != int64(len(want)) || st.WALSegments != 1 {
		t.Fatalf("a failed seal moved state: %+v", st)
	}
	if got, _, _ := collect(t, s); !sameSpans(got, want) {
		t.Fatal("rows acknowledged before the failed seals are no longer scannable")
	}
	return s, want, func() {
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSealFailureIsRetriedByTheNextAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 12, SealBytes: 1 << 30}
	s, want, unblock := failingSeals(t, dir, cfg)
	unblock()
	b, payload := testBatch(5)
	want = append(want, b.Spans...)
	if err := s.Append(payload, b); err != nil {
		t.Fatalf("seal after the directory became writable: %v", err)
	}
	if st := s.Stats(); st.Blocks != 1 || st.MemSpans != 0 || st.SealErrors != 3 {
		t.Fatalf("after the retried seal: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, rs, err := Open(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rs.BlockSpans != len(want) || rs.WALBatches != 0 {
		t.Fatalf("reopen found %d block spans and %d WAL batches, want %d and 0", rs.BlockSpans, rs.WALBatches, len(want))
	}
	if got, _, _ := collect(t, s); !sameSpans(got, want) {
		t.Fatal("the retried seal lost or reordered rows")
	}
}

func TestSealFailureThenCrashReplaysEverySpan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sync: SyncNever, SealSpans: 12, SealBytes: 1 << 30}
	s, want, _ := failingSeals(t, dir, cfg)
	s.Abort() // the seals never went through; the WAL is all there is
	var replayed []*trace.Span
	s, rs, err := Open(dir, cfg, func(b *transport.Batch) { replayed = append(replayed, b.Spans...) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rs.Blocks != 0 || rs.WALSpans != len(want) || !sameSpans(replayed, want) {
		t.Fatalf("reopen replayed %d WAL spans and %d blocks, want all %d spans from the WAL", rs.WALSpans, rs.Blocks, len(want))
	}
}
