package bfs

import (
	"sync"
	"testing"
)

// writerOn binds a fresh Writer to q, the way the Scratch binds its own.
func writerOn(q *BlockQueue) *Writer {
	w := &Writer{}
	w.Reset(q)
	return w
}

func TestBlockQueueSingleWriter(t *testing.T) {
	q := NewBlockQueue(100, 8)
	w := writerOn(q)
	for v := int32(0); v < 20; v++ {
		w.Push(v)
	}
	if pad, over := w.Flush(); pad != 4 || over != 0 {
		t.Errorf("Flush = %d sentinels, %d overflowed; want 4, 0", pad, over)
	}
	main := q.Entries()
	// 20 values in blocks of 8 -> 3 blocks reserved = 24 slots, 4 sentinels.
	if len(main) != 24 {
		t.Errorf("reserved %d slots, want 24", len(main))
	}
	var got []int32
	sentinels := 0
	for _, v := range main {
		if v == Sentinel {
			sentinels++
		} else {
			got = append(got, v)
		}
	}
	if len(got) != 20 || sentinels != 4 {
		t.Errorf("%d values + %d sentinels, want 20 + 4", len(got), sentinels)
	}
	if got := q.next.Load(); got != 3*8 {
		t.Errorf("reservation cursor at %d, want 3 blocks of 8", got)
	}
}

func TestBlockQueueConcurrentWritersNoLoss(t *testing.T) {
	const workers, perWorker = 8, 1000
	q := NewBlockQueue(workers*perWorker+workers*16, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := writerOn(q)
			for i := 0; i < perWorker; i++ {
				wr.Push(int32(w*perWorker + i))
			}
			wr.Flush()
		}()
	}
	wg.Wait()
	seen := make(map[int32]bool)
	for _, v := range q.Entries() {
		if v == Sentinel {
			continue
		}
		if seen[v] {
			t.Fatalf("value %d appears twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*perWorker {
		t.Errorf("recovered %d values, want %d", len(seen), workers*perWorker)
	}
}

func TestBlockQueueSpillOverflow(t *testing.T) {
	// Capacity for only one block: every push after it is counted, not
	// stored and not dropped from the count.
	q := NewBlockQueue(4, 4)
	w := writerOn(q)
	for v := int32(0); v < 50; v++ {
		w.Push(v)
	}
	pad, over := w.Flush()
	main := q.Entries()
	if len(main) != 4 || pad != 0 || over != 46 {
		t.Errorf("%d stored, %d sentinels, %d overflowed; want 4, 0, 46", len(main), pad, over)
	}
	for i, v := range main {
		if v != int32(i) {
			t.Errorf("entry %d = %d, want %d", i, v, i)
		}
	}
}

// TestBlockQueueOverflowIsDense pins the argument that lets the level loop
// count an overflow instead of storing it: W writers over a queue of the
// capacity the loop gives a graph of n vertices, n + W·bs, leave at most
// W·(bs−1) sentinels, so a level whose writers push past the end has more
// than n real entries plus overflow, and its successor is dense.
func TestBlockQueueOverflowIsDense(t *testing.T) {
	const n, workers, bs = 100, 3, 8
	q := NewBlockQueue(n+workers*bs, bs)
	ws := make([]*Writer, workers)
	for i := range ws {
		ws[i] = writerOn(q)
	}
	// The most padding an overflowing level can leave: every writer but one
	// holds a block with a single entry, and that one fills the rest of the
	// array and pushes on past its end.
	for i := 1; i < workers; i++ {
		ws[i].Push(int32(i - 1))
	}
	for v := int32(workers - 1); v < 2*n; v++ {
		ws[0].Push(v)
	}
	pad, over := 0, 0
	for _, w := range ws {
		p, o := w.Flush()
		pad, over = pad+p, over+o
	}
	main := q.Entries()
	if over == 0 {
		t.Fatalf("no push overflowed a queue of %d slots", len(main))
	}
	if pad > workers*(bs-1) {
		t.Errorf("%d sentinels, want at most W·(bs−1) = %d", pad, workers*(bs-1))
	}
	if frontier := len(main) - pad + over; frontier <= n || frontier*denseShare < n {
		t.Errorf("frontier |F| = %d, want > n = %d (and so dense)", frontier, n)
	}
	if stored := len(main) - pad; stored+over != 2*n {
		t.Errorf("%d stored + %d overflowed, want the %d pushed", stored, over, 2*n)
	}
}

func TestBlockQueueResetReuse(t *testing.T) {
	q := NewBlockQueue(64, 8)
	for round := 0; round < 3; round++ {
		w := writerOn(q)
		for v := int32(0); v < 10; v++ {
			w.Push(v)
		}
		w.Flush()
		if len(q.Entries()) == 0 {
			t.Fatal("queue empty after pushes")
		}
		q.Reset()
		if len(q.Entries()) != 0 {
			t.Fatal("queue not empty after Reset")
		}
	}
}

func TestBlockQueuePanicsOnBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for block size 0")
		}
	}()
	NewBlockQueue(10, 0)
}
