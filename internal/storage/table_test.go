package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntColumnRoundTrip(t *testing.T) {
	c := NewColumn(TypeInt64)
	for i := int64(0); i < 100; i++ {
		c.AppendInt(i * 3)
	}
	if c.Len() != 100 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Int(10) != 30 || c.Str(10) != "30" {
		t.Fatalf("read = %d / %s", c.Int(10), c.Str(10))
	}
}

func TestStringColumnRoundTrip(t *testing.T) {
	c := NewColumn(TypeString)
	words := []string{"", "a", "pod-frontend-7d9f", strings.Repeat("x", 1000)}
	for _, w := range words {
		c.AppendString(w)
	}
	for i, w := range words {
		if c.Str(i) != w {
			t.Fatalf("Str(%d) = %q, want %q", i, c.Str(i), w)
		}
	}
}

func TestLowCardColumnDedup(t *testing.T) {
	c := NewColumn(TypeLowCardinality).(*lowCardColumn)
	for i := 0; i < 1000; i++ {
		c.AppendString(fmt.Sprintf("node-%d", i%4))
	}
	if len(c.values) != 4 {
		t.Fatalf("dictionary size = %d, want 4", len(c.values))
	}
	if c.Str(999) != "node-3" || c.Str(0) != "node-0" {
		t.Fatalf("reads: %q %q", c.Str(999), c.Str(0))
	}
}

func TestEncodingSizesOrdered(t *testing.T) {
	// Smart (Int64) < LowCardinality < String for production-like tag
	// cardinality (thousands of distinct pod names) — the ordering
	// Fig. 14 depends on.
	values := make([]string, 10000)
	ids := make([]int64, 10000)
	for i := range values {
		values[i] = fmt.Sprintf("pod-name-with-long-suffix-%d", i%2000)
		ids[i] = int64(i % 2000)
	}
	str, low, intc := NewColumn(TypeString), NewColumn(TypeLowCardinality), NewColumn(TypeInt64)
	for i := range values {
		str.AppendString(values[i])
		low.AppendString(values[i])
		intc.AppendInt(ids[i])
	}
	size := func(c Column) int64 {
		var b bytes.Buffer
		n, err := c.WriteTo(&b)
		if err != nil {
			t.Fatal(err)
		}
		if int64(b.Len()) != n {
			t.Fatalf("WriteTo returned %d, wrote %d", n, b.Len())
		}
		return n
	}
	sInt, sLow, sStr := size(intc), size(low), size(str)
	if !(sInt < sLow && sLow < sStr) {
		t.Fatalf("disk sizes int=%d low=%d str=%d not ordered", sInt, sLow, sStr)
	}
	if !(intc.MemBytes() < low.MemBytes() && low.MemBytes() < str.MemBytes()) {
		t.Fatalf("mem sizes int=%d low=%d str=%d not ordered", intc.MemBytes(), low.MemBytes(), str.MemBytes())
	}
}

func TestColumnTypeMisusePanics(t *testing.T) {
	cases := []func(){
		func() { NewColumn(TypeInt64).AppendString("x") },
		func() { NewColumn(TypeString).AppendInt(1) },
		func() { NewColumn(TypeLowCardinality).AppendInt(1) },
		func() {
			c := NewColumn(TypeString)
			c.AppendString("a")
			c.Int(0)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func testSchema() []ColumnDef {
	return []ColumnDef{
		{Name: "id", Type: TypeInt64},
		{Name: "pod", Type: TypeLowCardinality},
		{Name: "note", Type: TypeString},
	}
}

func TestTableInsertAndRead(t *testing.T) {
	tbl := NewTable("spans", testSchema())
	for i := 0; i < 10; i++ {
		tbl.NewRow().
			Int("id", int64(i)).
			Str("pod", "pod-a").
			Str("note", fmt.Sprintf("row %d", i)).
			Commit()
	}
	if tbl.Rows() != 10 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if tbl.Col("id").Int(7) != 7 || tbl.Col("note").Str(3) != "row 3" {
		t.Fatal("column reads wrong")
	}
	if tbl.Col("missing") != nil {
		t.Fatal("missing column should be nil")
	}
	if len(tbl.Schema()) != 3 {
		t.Fatal("schema lost")
	}
}

// TestTablePositionalRowsMatchNamedRows: rows written through Columns +
// RowAdded account exactly like rows written by name — same row count,
// same resident and serialized bytes — and the handles outlive Reset.
func TestTablePositionalRowsMatchNamedRows(t *testing.T) {
	named, positional := NewTable("spans", testSchema()), NewTable("spans", testSchema())
	cols := positional.Columns()
	fill := func() {
		for i := 0; i < 50; i++ {
			pod, note := fmt.Sprintf("pod-%d", i%3), fmt.Sprintf("row %d", i)
			named.NewRow().Int("id", int64(i)).Str("pod", pod).Str("note", note).Commit()
			cols[0].AppendInt(int64(i))
			cols[1].AppendString(pod)
			cols[2].AppendString(note)
			positional.RowAdded()
		}
	}
	for round := 0; round < 2; round++ {
		fill()
		if positional.Rows() != named.Rows() || positional.MemBytes() != named.MemBytes() ||
			positional.DiskSize() != named.DiskSize() || positional.DiskBytes() != named.DiskBytes() {
			t.Fatalf("round %d: positional table %d rows / %d mem / %d disk, named %d / %d / %d", round,
				positional.Rows(), positional.MemBytes(), positional.DiskSize(), named.Rows(), named.MemBytes(), named.DiskSize())
		}
		named.Reset()
		positional.Reset()
	}
}

func TestTablePositionalShortRowPanics(t *testing.T) {
	tbl := NewTable("spans", testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("a row that skipped the last column was counted")
		}
	}()
	tbl.Columns()[0].AppendInt(1)
	tbl.Columns()[1].AppendString("p")
	tbl.RowAdded()
}

func TestTableIncompleteRowPanics(t *testing.T) {
	tbl := NewTable("spans", testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete row committed")
		}
	}()
	tbl.NewRow().Int("id", 1).Commit()
}

func TestTableUnknownColumnPanics(t *testing.T) {
	tbl := NewTable("spans", testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown column accepted")
		}
	}()
	tbl.NewRow().Int("bogus", 1)
}

func TestTablePersist(t *testing.T) {
	dir := t.TempDir()
	tbl := NewTable("spans", testSchema())
	for i := 0; i < 100; i++ {
		tbl.NewRow().Int("id", int64(i)).Str("pod", "p").Str("note", "n").Commit()
	}
	n, err := tbl.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(dir + "/spans.col")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != n || n != tbl.DiskBytes() {
		t.Fatalf("file=%d returned=%d DiskBytes=%d", st.Size(), n, tbl.DiskBytes())
	}
}

// Property: the incremental DiskSize accounting matches an actual
// serialization for every column type, including negative ints (worst-case
// varints) and repeated/unique strings (dictionary growth).
func TestDiskSizeMatchesSerialization(t *testing.T) {
	prop := func(ints []int64, strs []string) bool {
		i64, i32 := NewColumn(TypeInt64), NewColumn(TypeInt32)
		for _, v := range ints {
			i64.AppendInt(v)
			i32.AppendInt(v)
		}
		s, l := NewColumn(TypeString), NewColumn(TypeLowCardinality)
		for _, v := range strs {
			s.AppendString(v)
			l.AppendString(v)
			l.AppendString(v) // repeats exercise the dictionary path
		}
		for _, c := range []Column{i64, i32, s, l} {
			n, err := c.WriteTo(io.Discard)
			if err != nil || n != c.DiskSize() {
				t.Logf("%s: serialized=%d DiskSize=%d err=%v", c.Type(), n, c.DiskSize(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableDiskSize(t *testing.T) {
	tbl := NewTable("spans", testSchema())
	for i := 0; i < 1000; i++ {
		tbl.NewRow().Int("id", int64(i)).Str("pod", "p").Str("note", "note-"+string(rune('a'+i%7))).Commit()
	}
	if got, want := tbl.DiskSize(), tbl.DiskBytes(); got != want {
		t.Fatalf("DiskSize=%d, serialized=%d", got, want)
	}
	if tbl.Blocks() != len(testSchema()) {
		t.Fatalf("blocks = %d", tbl.Blocks())
	}
}

// Property: any sequence of strings round-trips through both string
// encodings.
func TestStringEncodingsRoundTripProperty(t *testing.T) {
	prop := func(vals []string) bool {
		s, l := NewColumn(TypeString), NewColumn(TypeLowCardinality)
		for _, v := range vals {
			s.AppendString(v)
			l.AppendString(v)
		}
		for i, v := range vals {
			if s.Str(i) != v || l.Str(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
