package dstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenBlocks are block images written by the encoder this package had
// before blocks were read and written without storage.Column (PR 13's
// marshalBlock over testRows(40), WAL range 3-9), one per encoding. They
// pin the on-disk format: blockVersion 1 files must keep opening, and the
// encoder must keep producing exactly these bytes for these rows.
var goldenBlocks = []string{"block-v1.blk", "block-v1-direct.blk", "block-v1-lowcard.blk"}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenBlockDecodesAndReencodes(t *testing.T) {
	var want rows
	want.spans, want.flows, want.profiles = testRows(40)
	for i, name := range goldenBlocks {
		golden := readGolden(t, name)
		meta, spans, flows, profiles, err := unmarshalBlock(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta.walFirst != 3 || meta.walLast != 9 || meta.enc != BlockEncoding(i) {
			t.Fatalf("%s: header %+v", name, meta)
		}
		if !want.same(rows{spans, flows, profiles}) {
			t.Fatalf("%s: decoded rows differ from the rows it was sealed from", name)
		}
		if got := marshalBlock(meta.walFirst, meta.walLast, spans, flows, profiles, meta.enc); !bytes.Equal(got, golden) {
			t.Fatalf("%s: re-encoding the decoded rows gives %d bytes that differ from the file's %d", name, len(got), len(golden))
		}
	}
}

// copyDir copies a fixture shard directory somewhere writable (Open
// creates a WAL segment in the directory it is given).
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestShardDirectoryWrittenBeforeColumnNativeMerge opens two shard
// directories the previous encoder and the previous, row-materializing
// compaction left behind (testBatch 0…11 under SealSpans 12: four sealed
// blocks, and the same four merged into one). Both must replay the rows
// they were written from, and compacting the four-block directory now must
// produce, byte for byte, the file the old compaction produced.
func TestShardDirectoryWrittenBeforeColumnNativeMerge(t *testing.T) {
	cfg := Config{Sync: SyncNever, SealSpans: 12, SealBytes: 1 << 30}
	var want rows
	for i := 0; i < 12; i++ {
		b, _ := testBatch(i)
		want = want.concat(rows{b.Spans, b.Flows, b.Profiles})
	}
	const merged = "block-00000001-00000004.blk"
	oldMerge := readGolden(t, filepath.Join("shard-v1-compacted", merged))

	for _, fixture := range []string{"shard-v1-sealed", "shard-v1-compacted"} {
		dir := copyDir(t, filepath.Join("testdata", fixture))
		s, rs, err := Open(dir, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		if rs.BlockSpans != len(want.spans) || rs.WALBatches != 0 {
			t.Fatalf("%s: replayed %+v, want %d block spans", fixture, rs, len(want.spans))
		}
		spans, flows, profiles := collect(t, s)
		if !want.same(rows{spans, flows, profiles}) {
			t.Fatalf("%s: scanned rows differ from the rows the directory was written from", fixture)
		}
		merges, err := s.Compact()
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		if wantMerges := map[string]int{"shard-v1-sealed": 1, "shard-v1-compacted": 0}[fixture]; merges != wantMerges {
			t.Fatalf("%s: %d merges, want %d", fixture, merges, wantMerges)
		}
		if got, err := os.ReadFile(filepath.Join(dir, merged)); err != nil || !bytes.Equal(got, oldMerge) {
			t.Fatalf("%s: %s differs from the old compaction's output (%v)", fixture, merged, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
