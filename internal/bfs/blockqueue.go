package bfs

import "sync/atomic"

// Sentinel fills the unconsumed tail of a partially used block, so the
// vertex-visit loop can skip it ("we fill the remaining of the block with a
// sentinel value (an invalid vertex ID, such as -1)", §IV-C).
const Sentinel int32 = -1

// BlockQueue is the paper's block-accessed shared queue: a contiguous array
// in which each worker reserves fixed-size blocks with an atomic fetch-and-
// add of the shared index pointer, then fills its block privately. Partially
// filled blocks are padded with Sentinel.
//
// Relaxed insertion can (rarely) produce more entries than the queue's
// capacity. A push past the end is not stored but counted by its Writer:
// the level loop sizes the queue so that a level which overflows it is
// dense, and a dense level never reads the queue (DESIGN.md §2), so the
// count is all the loop needs. This keeps the hot path identical to the
// paper's while making the structure safe for any input.
type BlockQueue struct {
	buf       []int32
	blockSize int
	next      atomic.Int64 // next unreserved position in buf
}

// NewBlockQueue creates a queue backed by capacity slots with the given
// block size (the paper's best-performing value is 32).
func NewBlockQueue(capacity, blockSize int) *BlockQueue {
	if blockSize < 1 {
		panic("bfs: block size must be >= 1")
	}
	if capacity < blockSize {
		capacity = blockSize
	}
	return &BlockQueue{buf: make([]int32, capacity), blockSize: blockSize}
}

// Reset empties the queue for reuse in the next level.
func (q *BlockQueue) Reset() { q.next.Store(0) }

// Cap returns the capacity of the backing array.
func (q *BlockQueue) Cap() int { return len(q.buf) }

// Entries returns the filled portion of the array. Entries equal to Sentinel
// must be skipped. Call only after all writers have flushed (i.e. between
// levels).
func (q *BlockQueue) Entries() []int32 {
	return q.buf[:min(int(q.next.Load()), len(q.buf))]
}

// Writer is one worker's private cursor into the queue. The zero value is
// unbound: Reset binds it to the queue of the level at hand, level after
// level. A Writer must be flushed when its level's production ends. The
// padding makes it a cache line long, so two workers' Writers, each written
// at every push, never share one.
type Writer struct {
	q        *BlockQueue
	pos, end int64
	over     int // pushes that found the array exhausted: counted, not stored
	_        [32]byte
}

// Reset rebinds the writer to q with no reserved block, ready for a new
// level.
func (w *Writer) Reset(q *BlockQueue) {
	w.q = q
	w.pos, w.end, w.over = 0, 0, 0
}

// Push appends v to the queue. It inlines: the no-room case is pushSlow's.
func (w *Writer) Push(v int32) {
	if w.pos == w.end {
		w.pushSlow(v)
		return
	}
	w.q.buf[w.pos] = v
	w.pos++
}

// pushSlow reserves the next block or, once the backing array is exhausted,
// counts v as overflowed (pos == end from then on: every later Push of the
// level lands here).
func (w *Writer) pushSlow(v int32) {
	if w.over > 0 || !w.grabBlock() {
		w.over++
		return
	}
	w.q.buf[w.pos] = v
	w.pos++
}

// grabBlock reserves the next block with an atomic fetch-and-add. It
// reports false when the backing array is exhausted.
func (w *Writer) grabBlock() bool {
	q := w.q
	start := q.next.Add(int64(q.blockSize)) - int64(q.blockSize)
	if start >= int64(len(q.buf)) {
		return false
	}
	w.pos = start
	w.end = start + int64(q.blockSize)
	if w.end > int64(len(q.buf)) {
		w.end = int64(len(q.buf))
	}
	return true
}

// Flush pads the unused remainder of the current block with Sentinel and
// returns how many sentinels it wrote and how many pushes overflowed the
// array. Must be called once per level per writer, after which the Writer is
// ready for the next level.
func (w *Writer) Flush() (pad, over int) {
	pad, over = int(w.end-w.pos), w.over
	for ; w.pos < w.end; w.pos++ {
		w.q.buf[w.pos] = Sentinel
	}
	w.pos, w.end, w.over = 0, 0, 0
	return pad, over
}
