package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ColumnDef is one schema entry.
type ColumnDef struct {
	Name string
	Type ColumnType
}

// Table is a columnar table with a fixed schema.
type Table struct {
	Name   string
	schema []ColumnDef
	byName map[string]int
	cols   []Column
	rows   int

	// persistent, when set, reports the actual on-disk bytes of the
	// durable tier backing this table (WAL segments + sealed blocks); see
	// SetPersistent.
	persistent func() int64
}

// NewTable creates an empty table.
func NewTable(name string, schema []ColumnDef) *Table {
	t := &Table{Name: name, schema: schema, byName: make(map[string]int, len(schema))}
	for i, def := range schema {
		t.byName[def.Name] = i
		t.cols = append(t.cols, NewColumn(def.Type))
	}
	return t
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Schema returns the column definitions.
func (t *Table) Schema() []ColumnDef { return t.schema }

// Col returns a column by name, or nil.
func (t *Table) Col(name string) Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.cols[i]
}

// Columns returns the column handles in schema order, for writers that
// resolve them once instead of by name per value. The slice is the
// table's own: it stays current across Reset and must not be modified. A
// row written through it — exactly one value appended to every column —
// is completed with RowAdded.
func (t *Table) Columns() []Column { return t.cols }

// RowAdded counts one row written positionally through Columns. Appending
// to every column is the caller's contract (the by-name RowWriter checks
// it; a hot path that writes a fixed column list does not need to), so
// only the cheapest symptom of breaking it is caught here.
func (t *Table) RowAdded() {
	t.rows++
	if n := len(t.cols); n > 0 && (t.cols[0].Len() != t.rows || t.cols[n-1].Len() != t.rows) {
		panic(fmt.Sprintf("storage: positional row for %q left columns at %d and %d values after %d rows",
			t.Name, t.cols[0].Len(), t.cols[n-1].Len(), t.rows))
	}
}

// RowWriter appends one row; every column must be set exactly once per row.
// It is deliberately low-ceremony: Insert panics on schema misuse, which is
// always a programming error in this embedded setting.
type RowWriter struct {
	t   *Table
	set int
}

// NewRow starts a row append.
func (t *Table) NewRow() *RowWriter { return &RowWriter{t: t} }

// Int sets an integer column value.
func (r *RowWriter) Int(name string, v int64) *RowWriter {
	c := r.t.Col(name)
	if c == nil {
		panic(fmt.Sprintf("storage: no column %q in %q", name, r.t.Name))
	}
	c.AppendInt(v)
	r.set++
	return r
}

// Str sets a string (or low-cardinality) column value.
func (r *RowWriter) Str(name string, v string) *RowWriter {
	c := r.t.Col(name)
	if c == nil {
		panic(fmt.Sprintf("storage: no column %q in %q", name, r.t.Name))
	}
	c.AppendString(v)
	r.set++
	return r
}

// Commit finalizes the row, verifying all columns were populated.
func (r *RowWriter) Commit() {
	if r.set != len(r.t.cols) {
		panic(fmt.Sprintf("storage: row for %q set %d of %d columns", r.t.Name, r.set, len(r.t.cols)))
	}
	r.t.rows++
	for _, c := range r.t.cols {
		if c.Len() != r.t.rows {
			panic(fmt.Sprintf("storage: column length mismatch in %q", r.t.Name))
		}
	}
}

// MemBytes estimates the table's resident memory.
func (t *Table) MemBytes() int {
	n := 0
	for _, c := range t.cols {
		n += c.MemBytes()
	}
	return n
}

// Blocks returns the number of column blocks the table serializes to.
func (t *Table) Blocks() int { return len(t.cols) }

// SetPersistent attaches the durable tier's byte accounting to the table.
// Once set, DiskSize reports fn() — the true on-disk footprint (WAL bytes
// plus sealed block bytes) — instead of the what-if serialized estimate,
// so `deepflow -stats` and the deepflow_server_storage_disk_bytes gauge
// tell the truth when a data dir is configured. fn must be safe for
// concurrent use (the durable tier backs it with atomics). Call before
// ingest starts; the hook itself is not synchronized.
func (t *Table) SetPersistent(fn func() int64) { t.persistent = fn }

// DiskSize returns the table's on-disk footprint. With a persistent tier
// attached (SetPersistent) this is the measured WAL + sealed-block byte
// count; otherwise it is the serialized-size estimate from the columns'
// incremental accounting — equal to DiskBytes but O(columns) instead of a
// full serialization, cheap enough for periodic self-monitoring scrapes.
func (t *Table) DiskSize() int64 {
	if t.persistent != nil {
		return t.persistent()
	}
	var n int64
	for _, c := range t.cols {
		n += c.DiskSize()
	}
	return n
}

// Reset drops every row, rebuilding empty columns under the same schema.
// Retention rebuilds (server.SpanStore.EvictBefore) re-insert the
// surviving rows through the normal row path afterwards.
func (t *Table) Reset() {
	for i, def := range t.schema {
		t.cols[i] = NewColumn(def.Type)
	}
	t.rows = 0
}

// WriteTo serializes all column blocks (the on-disk representation) and
// returns the total bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, c := range t.cols {
		n, err := c.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// DiskBytes returns the serialized size without writing anywhere.
func (t *Table) DiskBytes() int64 {
	n, _ := t.WriteTo(io.Discard)
	return n
}

// Persist writes the table to dir/<name>.col and returns the byte size.
func (t *Table) Persist(dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".col"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := t.WriteTo(f)
	if err != nil {
		return n, err
	}
	return n, f.Close()
}
