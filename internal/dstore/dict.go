package dstore

// LowCardinality dictionary plumbing shared by block decode and block
// merge. Both walk dictionaries as byte views into the block image, so
// neither pays a string allocation (or a Go map insert) per entry.

import "deepflow/internal/trace"

// dictIndex assigns dense IDs to byte strings in first-appearance order —
// an open-addressing hash table whose keys are views into block images.
// Slot order never escapes: callers only see the IDs.
type dictIndex struct {
	slots []uint32 // entry ID + 1; 0 is an empty slot; len is a power of two
	ents  [][]byte // entry bytes by ID
}

// reset empties the index, keeping its storage for the next column.
func (d *dictIndex) reset() {
	if d.slots == nil {
		d.slots = make([]uint32, 1024)
	}
	clear(d.slots)
	d.ents = d.ents[:0]
}

// intern returns b's ID, assigning the next one when b is new.
func (d *dictIndex) intern(b []byte) (id uint32, fresh bool) {
	if 2*(len(d.ents)+1) > len(d.slots) {
		d.grow()
	}
	mask := uint64(len(d.slots) - 1)
	for at := hashBytes(b) & mask; ; at = (at + 1) & mask {
		slot := d.slots[at]
		if slot == 0 {
			d.ents = append(d.ents, b)
			d.slots[at] = uint32(len(d.ents))
			return uint32(len(d.ents) - 1), true
		}
		if string(d.ents[slot-1]) == string(b) {
			return slot - 1, false
		}
	}
}

// hashBytes is FNV-1a: unseeded, so probe sequences (and with them every
// run of this package) repeat exactly.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// grow doubles the table and re-seats every entry.
func (d *dictIndex) grow() {
	d.slots = make([]uint32, 2*len(d.slots))
	mask := uint64(len(d.slots) - 1)
	for i, e := range d.ents {
		at := hashBytes(e) & mask
		for d.slots[at] != 0 {
			at = (at + 1) & mask
		}
		d.slots[at] = uint32(i + 1)
	}
}

// indexOrder checks a LowCardinality column's per-row index stream against
// the canonical form: entry k's first use comes after entries 0…k-1 have
// all been used, and no entry goes unused.
type indexOrder struct{ next, entries uint64 }

// ok admits one row's index.
func (o *indexOrder) ok(id uint64) bool {
	if id == o.next && id < o.entries {
		o.next++
		return true
	}
	return id < o.next
}

// done reports whether every dictionary entry was used.
func (o *indexOrder) done() bool { return o.next == o.entries }

// readDictLen reads a LowCardinality column's entry count for a column of
// rows rows; more entries than rows cannot all be used.
func readDictLen(r *trace.WireReader, rows int) uint64 {
	n := r.Uvarint()
	if n > uint64(rows) {
		r.Fail("dictionary larger than its column")
		return 0
	}
	return n
}

// dictReader decodes LowCardinality columns into strings, reusing its
// scratch across the columns of one block.
type dictReader struct {
	index   dictIndex
	bounds  [][2]int // each entry's [start,end) within the dictionary bytes
	values  []string
	indexes []uint32 // the column's per-row dictionary indexes, after read
}

// read decodes one column of rows rows at r: it returns the dictionary's
// values — views of a single string holding the whole dictionary — and
// leaves each row's index in d.indexes. Any column the encoder could not
// have produced fails r.
func (d *dictReader) read(r *trace.WireReader, rows int) []string {
	n := readDictLen(r, rows)
	d.index.reset()
	d.bounds = d.bounds[:0]
	start := r.Pos
	for j := uint64(0); j < n && r.Err == nil; j++ {
		e := r.Bytes()
		if _, fresh := d.index.intern(e); !fresh {
			r.Fail("duplicate dictionary entry")
		}
		d.bounds = append(d.bounds, [2]int{r.Pos - len(e) - start, r.Pos - start})
	}
	if r.Err != nil {
		return nil
	}
	all := string(r.Data[start:r.Pos])
	d.values = d.values[:0]
	for _, b := range d.bounds {
		d.values = append(d.values, all[b[0]:b[1]])
	}

	d.indexes = d.indexes[:0]
	order := indexOrder{entries: n}
	for i := 0; i < rows; i++ {
		id := r.Uvarint()
		if !order.ok(id) {
			r.Fail("dictionary index out of first-appearance order")
			return nil
		}
		d.indexes = append(d.indexes, uint32(id))
	}
	if !order.done() {
		r.Fail("unused dictionary entry")
	}
	return d.values
}
