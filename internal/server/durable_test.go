package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepflow/internal/dstore"
	"deepflow/internal/profiling"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// durableTestConfig seals early so a moderate corpus produces a mix of
// sealed blocks and a live WAL tail — both recovery paths exercised in one
// run. SyncNever keeps the tests fast; fsync policy does not change what
// bytes land in the files, only when they are durable against power loss.
func durableTestConfig() dstore.Config {
	cfg := dstore.DefaultConfig()
	cfg.Sync = dstore.SyncNever
	cfg.SealSpans = 16
	cfg.SealBytes = 1 << 30
	return cfg
}

// querySnapshot renders every query surface of the shard-determinism
// contract into one string, so two servers (or one server before and after
// a crash) can be compared byte-for-byte.
func querySnapshot(t *testing.T, s *Server) string {
	t.Helper()
	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d\n", s.SpanCount())
	spans := s.SpanList(from, to, 0)
	for _, sp := range spans {
		fmt.Fprintf(&sb, "span #%d %s %s %s\n",
			sp.ID, sp.StartTime.Format(time.RFC3339Nano), sp.EndTime.Format(time.RFC3339Nano), sp.ProcessName)
	}
	for _, limit := range []int{1, 5, 17} {
		for _, sp := range s.SpanList(from, to, limit) {
			fmt.Fprintf(&sb, "limit%d #%d\n", limit, sp.ID)
		}
	}
	for _, sp := range spans {
		sb.WriteString(s.FormatTrace(s.Trace(sp.ID)))
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "services=%+v\n", s.SummarizeServices(from, to))
	fmt.Fprintf(&sb, "fast=%+v\n", s.ServiceSummaryFast(from, to))
	fmt.Fprintf(&sb, "profiles=%+v\n", s.ProfileSamples(from, to, ProfileFilter{}))
	fmt.Fprintf(&sb, "top=%+v\n", s.TopFunctions(from, to, ProfileFilter{}, 10))
	if err := s.WriteFolded(&sb, from, to, ProfileFilter{}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDurableKillReplayDeterminism is the kill-and-replay variant of the
// shard-determinism contract: a server with a durable tier is killed
// without flushing (fsync-free Abort — the crash simulation), a fresh
// server recovers from the same directory, and every query surface must be
// byte-identical both with the pre-crash server and with a reference server
// that ingested the same stream uninterrupted.
func TestDurableKillReplayDeterminism(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg, _, _ := testRegistry(t)
			batches := shardCorpus(t, reg, 40)
			dir := t.TempDir()

			ref := NewSharded(reg, EncodingSmart, 0, shards)
			defer ref.Close()
			ingestAll(t, ref, batches)

			victim := NewSharded(reg, EncodingSmart, 0, shards)
			if _, err := victim.AttachDurable(dir, durableTestConfig()); err != nil {
				t.Fatal(err)
			}
			ingestAll(t, victim, batches)
			before := querySnapshot(t, victim)
			wantSpans := victim.SpansIngested()
			victim.Kill()

			recovered := NewSharded(reg, EncodingSmart, 0, shards)
			defer recovered.Close()
			rs, err := recovered.AttachDurable(dir, durableTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.BlockSpans + rs.WALSpans; got != wantSpans {
				t.Fatalf("replayed %d spans (blocks %d + wal %d), want %d",
					got, rs.BlockSpans, rs.WALSpans, wantSpans)
			}
			if rs.Blocks == 0 || rs.WALBatches == 0 {
				t.Fatalf("want both recovery paths exercised, got blocks=%d walBatches=%d",
					rs.Blocks, rs.WALBatches)
			}

			after := querySnapshot(t, recovered)
			if after != before {
				t.Fatalf("recovered answers differ from pre-crash answers:\npre:\n%s\npost:\n%s", before, after)
			}
			if refSnap := querySnapshot(t, ref); after != refSnap {
				t.Fatalf("recovered answers differ from uninterrupted reference:\nref:\n%s\npost:\n%s", refSnap, after)
			}
		})
	}
}

// TestDurableNoSpanEntersUnlogged: on a durable 2-shard server every span
// SpanCount reports before a crash is there after recovery: there is no
// way in but IngestBatch → WAL → applyBatch, so nothing can be counted that
// the WAL never saw.
func TestDurableNoSpanEntersUnlogged(t *testing.T) {
	reg, _, _ := testRegistry(t)
	dir := t.TempDir()
	victim := NewSharded(reg, EncodingSmart, 0, 2)
	if _, err := victim.AttachDurable(dir, durableTestConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, victim, shardCorpus(t, reg, 20))
	// A second wave after the first drained, as the span-at-a-time tests ship.
	for i := 0; i < 25; i++ {
		ingestSpans(t, victim, &trace.Span{
			ID: trace.SpanID(1000 + i), Source: trace.SourceEBPF, TapSide: trace.TapServerProcess,
			StartTime: sim.Epoch.Add(time.Duration(i) * time.Second), EndTime: sim.Epoch.Add(time.Duration(i)*time.Second + time.Millisecond),
		})
	}
	want := victim.SpanCount()
	if want != 20*3+25 {
		t.Fatalf("SpanCount before the crash = %d, want %d", want, 20*3+25)
	}
	var ids []trace.SpanID
	for _, sp := range victim.SpanList(sim.Epoch, sim.Epoch.Add(24*time.Hour), 0) {
		ids = append(ids, sp.ID)
	}
	if len(ids) != want {
		t.Fatalf("span list holds %d spans, SpanCount %d", len(ids), want)
	}
	victim.Kill()

	recovered := NewSharded(reg, EncodingSmart, 0, 2)
	defer recovered.Close()
	if _, err := recovered.AttachDurable(dir, durableTestConfig()); err != nil {
		t.Fatal(err)
	}
	if got := recovered.SpanCount(); got != want {
		t.Fatalf("SpanCount after recovery = %d, %d before the crash", got, want)
	}
	for _, id := range ids {
		if recovered.SpanByID(id) == nil {
			t.Fatalf("span #%d was counted before the crash and is gone after recovery", id)
		}
	}
}

// TestDurableCleanShutdownZeroReplay: Close flushes the memtable into a
// sealed block and drops the covered WAL, so a clean restart replays zero
// WAL batches — recovery cost is proportional to what the crash lost, not
// to history.
func TestDurableCleanShutdownZeroReplay(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 20)
	dir := t.TempDir()

	s := NewSharded(reg, EncodingSmart, 0, 2)
	if _, err := s.AttachDurable(dir, durableTestConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, batches)
	want := querySnapshot(t, s)
	wantSpans := s.SpansIngested()
	s.Close()

	re := NewSharded(reg, EncodingSmart, 0, 2)
	defer re.Close()
	rs, err := re.AttachDurable(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALBatches != 0 || rs.WALSegments != 0 || rs.TornTailDropped != 0 {
		t.Fatalf("clean restart replayed WAL: %+v", rs)
	}
	if rs.BlockSpans != wantSpans {
		t.Fatalf("block replay restored %d spans, want %d", rs.BlockSpans, wantSpans)
	}
	if got := querySnapshot(t, re); got != want {
		t.Fatalf("clean-restart answers differ:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestRetentionCascade drives the TTL cascade end to end: raw spans older
// than the raw TTL disappear from span queries and from the durable tier
// (whole sealed blocks dropped), while rollup-backed aggregate answers over
// the evicted window stay exactly what they were — the paper's §3.4
// raw-then-rollup retention story. A later coarse TTL pass then removes the
// aggregates too.
func TestRetentionCascade(t *testing.T) {
	reg, _, _ := testRegistry(t)
	// 40 traces at 10 ms spacing: the corpus spans [Epoch, Epoch+400ms),
	// all inside one coarse rollup bucket.
	batches := shardCorpus(t, reg, 40)
	dir := t.TempDir()

	cfg := durableTestConfig()
	cfg.SealSpans = 8     // many small blocks → block-granular eviction visible
	cfg.CompactFanIn = 64 // no compaction: keep blocks time-narrow so whole blocks age out
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	if _, err := s.AttachDurable(dir, cfg); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, batches)

	from, to := sim.Epoch, sim.Epoch.Add(time.Minute)
	fastBefore := fmt.Sprintf("%+v", s.ServiceSummaryFast(from, to))
	rawBefore := len(s.SpanList(from, to.Add(24*time.Hour), 0))
	if rawBefore != 120 {
		t.Fatalf("corpus should yield 120 spans, got %d", rawBefore)
	}
	blocksBefore := s.DurableStats().Blocks
	if blocksBefore < 2 {
		t.Fatalf("want multiple sealed blocks before eviction, got %d", blocksBefore)
	}

	// Raw TTL: keep only the last 200 ms of spans; rollups keep everything.
	cutoff := sim.Epoch.Add(200 * time.Millisecond)
	now := sim.Epoch.Add(400 * time.Millisecond)
	res := s.ApplyRetention(now, now.Sub(cutoff), 0)
	if res.MemSpans == 0 {
		t.Fatalf("raw retention evicted nothing: %+v", res)
	}
	if res.DiskBlocks == 0 || res.DiskSpans == 0 {
		t.Fatalf("durable tier evicted nothing: %+v", res)
	}

	// Raw queries lose the old spans...
	survivors := s.SpanList(from, to, 0)
	if len(survivors) != rawBefore-res.MemSpans {
		t.Fatalf("span list has %d spans, want %d - %d", len(survivors), rawBefore, res.MemSpans)
	}
	for _, sp := range survivors {
		if sp.StartTime.Before(cutoff) {
			t.Fatalf("span #%d at %v survived raw cutoff %v", sp.ID, sp.StartTime, cutoff)
		}
	}
	// ...the durable tier dropped whole sealed blocks...
	if got := s.DurableStats().Blocks; got >= blocksBefore {
		t.Fatalf("sealed blocks %d, want fewer than %d", got, blocksBefore)
	}
	if err := s.DurableScan(func(shard int, info dstore.BlockInfo, spans []*trace.Span, flows []transport.FlowSample, profiles []profiling.Sample) error {
		if info.Spans > 0 && info.MaxNS < cutoff.UnixNano() {
			return fmt.Errorf("shard %d block %s wholly before cutoff survived", shard, info.Path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...but aggregate answers over the same window are untouched.
	if fastAfter := fmt.Sprintf("%+v", s.ServiceSummaryFast(from, to)); fastAfter != fastBefore {
		t.Fatalf("rollup answers changed after raw eviction:\nbefore: %s\nafter:  %s", fastBefore, fastAfter)
	}

	// Coarse TTL: ten minutes later, a 1-minute rollup TTL drops the
	// aggregates for good.
	res = s.ApplyRetention(sim.Epoch.Add(10*time.Minute), 0, time.Minute)
	if res.CoarseFloors == 0 {
		t.Fatalf("coarse retention touched no partials: %+v", res)
	}
	if left := s.ServiceSummaryFast(from, to); len(left) != 0 {
		t.Fatalf("aggregates survived coarse TTL: %+v", left)
	}
}

// TestDurableStatsFootprint: with a durable tier attached, the span stores'
// disk accounting reports the measured WAL + sealed-block footprint, not
// the in-memory column estimate.
func TestDurableStatsFootprint(t *testing.T) {
	reg, _, _ := testRegistry(t)
	dir := t.TempDir()
	s := NewSharded(reg, EncodingSmart, 0, 2)
	defer s.Close()
	if _, err := s.AttachDurable(dir, durableTestConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, shardCorpus(t, reg, 10))

	st := s.DurableStats()
	if st.WALBytes+st.SealedBytes == 0 {
		t.Fatal("durable tier reports zero bytes after ingest")
	}
	var tableBytes int64
	for _, store := range s.stores {
		tableBytes += store.Table().DiskSize()
	}
	if tableBytes != st.WALBytes+st.SealedBytes {
		t.Fatalf("Table.DiskSize sum %d != WAL %d + sealed %d",
			tableBytes, st.WALBytes, st.SealedBytes)
	}
}

// TestDurableSealFailureCountedAndReplayed: a shard whose seals fail (its
// block tmp file cannot be opened — a directory sits on the path, which
// stops root too) keeps ingesting, says so on
// deepflow_storage_seal_errors, and loses nothing: the WAL the failed
// seals left alone brings every span back after a crash.
func TestDurableSealFailureCountedAndReplayed(t *testing.T) {
	reg, _, _ := testRegistry(t)
	batches := shardCorpus(t, reg, 40)
	dir := t.TempDir()

	victim := NewSharded(reg, EncodingSmart, 0, 1)
	if _, err := victim.AttachDurable(dir, durableTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "shard-0", "block-00000001-00000001.blk.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, victim, batches)
	before := querySnapshot(t, victim)
	wantSpans := victim.SpansIngested()

	var sealErrors float64
	for _, sample := range victim.Mon.Snapshot() {
		if sample.Name == "deepflow_storage_seal_errors" {
			sealErrors = sample.Value
		}
	}
	st := victim.DurableStats()
	if sealErrors == 0 || sealErrors != float64(st.SealErrors) || st.Blocks != 0 {
		t.Fatalf("deepflow_storage_seal_errors = %v with Stats %+v, want every seal failed and counted", sealErrors, st)
	}
	victim.Kill()

	recovered := NewSharded(reg, EncodingSmart, 0, 1)
	defer recovered.Close()
	rs, err := recovered.AttachDurable(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALSpans != wantSpans || rs.Blocks != 0 {
		t.Fatalf("replayed %d WAL spans and %d blocks, want all %d spans from the WAL", rs.WALSpans, rs.Blocks, wantSpans)
	}
	if after := querySnapshot(t, recovered); after != before {
		t.Fatalf("recovered answers differ from pre-crash answers:\npre:\n%s\npost:\n%s", before, after)
	}
}
