package coherence

import "sync"

// Meta is the home-side state of one block under the snooping
// protocols (ring, bus and hierarchy): the dirty bit kept in main
// memory and, while it is set, the owning node.
type Meta struct {
	Dirty bool
	Owner int
}

// Table holds the Meta of every block touched, by value in one dense
// slice. A block gets the next row on first touch; the map only
// translates addresses to row indices, so state for a new block costs
// no allocation of its own.
type Table struct {
	idx  map[uint64]int32
	rows []Meta
}

// tables holds empty tables on released tables' storage: the index
// map and the rows emptied, both keeping their capacity. The three
// snooping engines share it, so a process alternating between them
// reuses one store.
var tables sync.Pool // of *Table

// NewTable returns an empty table, on a released table's storage when
// one is pooled. A fresh row is clean and unowned (Owner -1).
func NewTable() *Table {
	if t, _ := tables.Get().(*Table); t != nil {
		return t
	}
	return &Table{idx: make(map[uint64]int32)}
}

// Release empties the table and hands its storage to the next
// NewTable. Any later use panics. Releasing twice is a no-op.
func (t *Table) Release() {
	if t.idx == nil {
		return
	}
	clear(t.idx)
	tables.Put(&Table{idx: t.idx, rows: t.rows[:0]})
	t.idx, t.rows = nil, nil
}

// Index returns block's row index, appending a fresh row on first
// touch. Indices are dense: a new block gets Len()-1.
func (t *Table) Index(block uint64) int32 {
	i, ok := t.idx[block]
	if !ok {
		i = int32(len(t.rows))
		t.rows = append(t.rows, Meta{Owner: -1})
		t.idx[block] = i
	}
	return i
}

// At returns row i. The pointer is valid until the next Index call that
// adds a block; keep the index, not the pointer, across such calls.
func (t *Table) At(i int32) *Meta { return &t.rows[i] }

// Row returns block's row, creating it on first touch; the pointer is
// valid as for At.
func (t *Table) Row(block uint64) *Meta { return t.At(t.Index(block)) }

// Len returns the number of blocks touched so far.
func (t *Table) Len() int { return len(t.rows) }
