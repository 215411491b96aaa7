package coherence

// Table is per-block protocol state kept at the home (a dirty bit and
// owner, say), stored by value in one dense slice. A block gets the
// next row on first touch; the map only translates addresses to row
// indices, so state for a new block costs no allocation of its own.
type Table[T any] struct {
	idx  map[uint64]int32
	rows []T
	zero T
}

// NewTable returns an empty table whose fresh rows start as zero.
func NewTable[T any](zero T) *Table[T] {
	return &Table[T]{idx: make(map[uint64]int32), zero: zero}
}

// Index returns block's row index, appending a fresh row on first
// touch. Indices are dense: a new block gets Len()-1.
func (t *Table[T]) Index(block uint64) int32 {
	i, ok := t.idx[block]
	if !ok {
		i = int32(len(t.rows))
		t.rows = append(t.rows, t.zero)
		t.idx[block] = i
	}
	return i
}

// At returns row i. The pointer is valid until the next Index call that
// adds a block; keep the index, not the pointer, across such calls.
func (t *Table[T]) At(i int32) *T { return &t.rows[i] }

// Row returns block's row, creating it on first touch; the pointer is
// valid as for At.
func (t *Table[T]) Row(block uint64) *T { return t.At(t.Index(block)) }

// Len returns the number of blocks touched so far.
func (t *Table[T]) Len() int { return len(t.rows) }
