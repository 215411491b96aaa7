// Package memory models the distributed shared memory of the study:
// the physical memory is partitioned among the processing nodes, with
// shared pages allocated to homes at page granularity (the paper uses
// random allocation, which is what makes the fraction of remote clean
// misses grow with system size — Section 4.2). Each home keeps a dirty
// bit per block plus the directory state used by the directory-based
// protocols: a full-map presence vector, and for the linked-list
// organization alone an SCI-style sharing list. Bank access time is the
// paper's fixed 140 ns.
package memory

import (
	"errors"
	"math/bits"
	"sync"

	"repro/internal/sim"
)

// BankTime is the fixed local memory bank access time used throughout
// the paper (Section 4.1).
const BankTime = 140 * sim.Nanosecond

// HomeMap assigns block addresses to home nodes at page granularity.
type HomeMap struct {
	nodes     int
	pageBytes int
	// table maps page index -> home; built lazily for the address
	// range actually touched, seeded-random like the paper's OS page
	// placement.
	table map[uint64]int
	rng   *sim.Rand
	hint  func(addr uint64) (int, bool)
}

// SetHint installs a placement hint consulted before random placement:
// when it returns (node, true) with a valid node, the page is pinned
// there. Used to home private data at its owning processor while
// shared pages stay randomly allocated, as in the paper.
func (h *HomeMap) SetHint(hint func(addr uint64) (int, bool)) { h.hint = hint }

// ValidatePageBytes reports an error unless pageBytes is a positive
// power of two, the placement granularity NewHomeMap requires (it
// panics on the same error).
func ValidatePageBytes(pageBytes int) error {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return errors.New("memory: page size must be a positive power of two")
	}
	return nil
}

// NewHomeMap returns a page-granular random home mapping over the given
// number of nodes. pageBytes must be a power of two.
func NewHomeMap(nodes, pageBytes int, rng *sim.Rand) *HomeMap {
	if nodes <= 0 {
		panic("memory: need at least one node")
	}
	if err := ValidatePageBytes(pageBytes); err != nil {
		panic(err.Error())
	}
	table, _ := pageTables.Get().(map[uint64]int)
	if table == nil {
		table = make(map[uint64]int)
	}
	return &HomeMap{nodes: nodes, pageBytes: pageBytes, table: table, rng: rng}
}

// pageTables recycles the page tables of released home maps, emptied.
var pageTables sync.Pool // of map[uint64]int

// Release empties the page table and hands it to the next NewHomeMap.
// Any later placement panics. Releasing twice is a no-op.
func (h *HomeMap) Release() {
	if h.table == nil {
		return
	}
	clear(h.table)
	pageTables.Put(h.table)
	h.table = nil
}

// Nodes returns the number of nodes in the mapping.
func (h *HomeMap) Nodes() int { return h.nodes }

// Home returns the home node of addr. The first touch of a page fixes
// its placement for the rest of the run.
func (h *HomeMap) Home(addr uint64) int {
	page := addr / uint64(h.pageBytes)
	if home, ok := h.table[page]; ok {
		return home
	}
	var home int
	if n, ok := h.hintFor(addr); ok {
		home = n
	} else if h.rng != nil {
		home = h.rng.Intn(h.nodes)
	} else {
		home = int(page % uint64(h.nodes)) // deterministic round-robin fallback
	}
	h.table[page] = home
	return home
}

func (h *HomeMap) hintFor(addr uint64) (int, bool) {
	if h.hint == nil {
		return 0, false
	}
	n, ok := h.hint(addr)
	if !ok || n < 0 || n >= h.nodes {
		return 0, false
	}
	return n, true
}

// Place pins a page containing addr to a specific home (used by
// workloads that model private data living on the owning node).
func (h *HomeMap) Place(addr uint64, home int) {
	if home < 0 || home >= h.nodes {
		panic("memory: home out of range")
	}
	h.table[addr/uint64(h.pageBytes)] = home
}

// MaxDirectoryNodes is the most nodes a directory record can track,
// the paper's largest machine: the full-map presence vector is one
// 64-bit word and the SCI list keeps one successor per node.
const MaxDirectoryNodes = 64

// Line is the full-map directory record kept at the home node: one
// presence bit per node, a dirty bit, and the dirty owner. It is
// pointer-free, so directory storage is invisible to the garbage
// collector.
type Line struct {
	// presence is the full-map bit vector of sharers (including the
	// owner when dirty), one bit for each of MaxDirectoryNodes nodes.
	presence uint64
	// Owner is the dirty node when Dirty is set.
	Owner int
	// Dirty is set when exactly one cache holds the block WE.
	Dirty bool
}

// NumSharers returns the presence-bit population count.
func (l *Line) NumSharers() int { return bits.OnesCount64(l.presence) }

// HasSharer reports whether node's presence bit is set.
func (l *Line) HasSharer(node int) bool { return l.presence&(1<<uint(node)) != 0 }

// HasSharerBesides reports whether any presence bit other than a's and
// b's is set.
func (l *Line) HasSharerBesides(a, b int) bool {
	return l.presence&^(1<<uint(a)|1<<uint(b)) != 0
}

// AddSharer sets node's presence bit.
func (l *Line) AddSharer(node int) {
	if node < 0 || node >= MaxDirectoryNodes {
		panic("memory: sharer out of supported range [0,64)")
	}
	l.presence |= 1 << uint(node)
}

// RemoveSharer clears node's presence bit, and the dirty bit if node
// was the owner.
func (l *Line) RemoveSharer(node int) {
	if !l.HasSharer(node) {
		return
	}
	l.presence &^= 1 << uint(node)
	if l.Dirty && l.Owner == node {
		l.Dirty = false
	}
}

// ClearSharers resets the block to uncached-clean.
func (l *Line) ClearSharers() {
	l.presence = 0
	l.Dirty = false
}

// SetDirty marks node as the exclusive dirty owner: the presence vector
// collapses to that single node.
func (l *Line) SetDirty(node int) {
	l.ClearSharers()
	l.AddSharer(node)
	l.Dirty = true
	l.Owner = node
}

// ListLine is the directory record of the SCI linked-list organization
// (the Table 1 comparison): the full-map record plus the home's head
// pointer and each sharer's successor in the sharing list. Only that
// engine keeps the list; the full map alongside it is what the list
// must always agree with.
type ListLine struct {
	Line
	// Head is the sharing-list head node, -1 when uncached.
	Head int
	// next[i] is node i's successor in the sharing list, -1 at the
	// tail. A fixed array (valid only for present sharers) rather than
	// a map keeps the record pointer-free.
	next [MaxDirectoryNodes]int8
}

// AddSharer sets node's presence bit and links it at the head of the
// sharing list (SCI prepends new sharers, making the home's head
// pointer point at the most recent requester).
func (l *ListLine) AddSharer(node int) {
	if l.HasSharer(node) {
		return
	}
	l.Line.AddSharer(node)
	l.next[node] = int8(l.Head)
	l.Head = node
}

// RemoveSharer clears node's presence bit and unlinks it from the
// sharing list.
func (l *ListLine) RemoveSharer(node int) {
	if !l.HasSharer(node) {
		return
	}
	l.Line.RemoveSharer(node)
	if l.Head == node {
		l.Head = int(l.next[node])
		return
	}
	for cur := l.Head; cur >= 0; cur = int(l.next[cur]) {
		if int(l.next[cur]) == node {
			l.next[cur] = l.next[node]
			return
		}
	}
}

// ClearSharers resets the block to uncached-clean. Stale next entries
// need no clearing: the list is only reachable through Head and the
// presence bits.
func (l *ListLine) ClearSharers() {
	l.Line.ClearSharers()
	l.Head = -1
}

// SetDirty marks node as the exclusive dirty owner: the presence vector
// and the list collapse to that single node.
func (l *ListLine) SetDirty(node int) {
	l.Line.SetDirty(node)
	l.Head = node
	l.next[node] = -1
}

// AppendList appends the sharing list in SCI order (head first) to dst
// and returns the extended slice; callers that walk lists on a hot path
// pass a reused buffer.
func (l *ListLine) AppendList(dst []int) []int {
	n := 0
	for cur := l.Head; cur >= 0; cur = int(l.next[cur]) {
		dst = append(dst, cur)
		if n++; n > MaxDirectoryNodes {
			panic("memory: sharing list cycle")
		}
	}
	return dst
}

// lineChunkSize is how many records a directory allocates at once;
// records are handed out of chunks so each block's is not an individual
// heap object.
const lineChunkSize = 256

// Directory is the home-node directory for all blocks homed at one
// node, holding one record of type T per block touched.
type Directory[T any] struct {
	lines  map[uint64]*T
	chunks [][]T // every chunk, in hand-out order (pointers into them are stable)
	used   int   // chunks[:used] have handed out records
	chunk  []T   // the rest of chunks[used-1]
	fresh  T     // a first-touch record: clean and uncached
	pool   *sync.Pool
}

// lineStores and listStores hold empty directories on released
// directories' storage, one pool per record type.
var lineStores, listStores sync.Pool // of *Directory[Line], *Directory[ListLine]

func newDirectory[T any](fresh T, pool *sync.Pool) *Directory[T] {
	if d, _ := pool.Get().(*Directory[T]); d != nil {
		return d
	}
	return &Directory[T]{lines: make(map[uint64]*T), fresh: fresh, pool: pool}
}

// NewDirectory returns an empty full-map directory.
func NewDirectory() *Directory[Line] { return newDirectory(Line{}, &lineStores) }

// NewListDirectory returns an empty linked-list directory.
func NewListDirectory() *Directory[ListLine] {
	return newDirectory(ListLine{Head: -1}, &listStores)
}

// Line returns the record for block, creating a clean, uncached record
// on first touch.
func (d *Directory[T]) Line(block uint64) *T {
	ln := d.lines[block]
	if ln == nil {
		if len(d.chunk) == 0 {
			if d.used == len(d.chunks) {
				d.chunks = append(d.chunks, make([]T, lineChunkSize))
			}
			d.chunk = d.chunks[d.used]
			d.used++
		}
		ln = &d.chunk[0]
		d.chunk = d.chunk[1:]
		*ln = d.fresh
		d.lines[block] = ln
	}
	return ln
}

// Release empties the directory and hands its map and chunks to the
// next directory of the same record type; a handed-out record is reset
// to the fresh one, so stale records are never read. Any later use
// panics. Releasing twice is a no-op.
func (d *Directory[T]) Release() {
	if d.lines == nil {
		return
	}
	clear(d.lines)
	d.pool.Put(&Directory[T]{lines: d.lines, chunks: d.chunks, fresh: d.fresh, pool: d.pool})
	d.lines, d.chunks, d.chunk = nil, nil, nil
}

// Bank is one node's memory bank: a single server with the paper's
// fixed 140 ns access time.
type Bank struct {
	res *sim.Resource
}

// NewBank returns a memory bank attached to kernel k.
func NewBank(k *sim.Kernel, name string) *Bank {
	return &Bank{res: sim.NewResource(k, name, 1)}
}

// Access queues one 140 ns bank access; done runs when it completes.
func (b *Bank) Access(done func()) { b.res.Use(BankTime, done) }

// AccessEvent is Access completing into a pooled handler: h.OnEvent
// fires when the access completes.
func (b *Bank) AccessEvent(h sim.EventHandler) { b.res.UseEvent(BankTime, h) }

// Utilization reports the bank's time-averaged utilization.
func (b *Bank) Utilization() float64 { return b.res.Utilization() }

// MeanWait reports the average queueing delay at the bank.
func (b *Bank) MeanWait() sim.Time { return b.res.MeanWait() }
