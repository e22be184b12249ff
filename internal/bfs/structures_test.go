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
	w.Flush()
	main, spill := q.Entries()
	if len(spill) != 0 {
		t.Errorf("unexpected spill of %d", len(spill))
	}
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
	main, spill := q.Entries()
	seen := make(map[int32]bool)
	for _, v := range append(append([]int32{}, main...), spill...) {
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
	// Capacity for only one block: everything after it must spill, not drop.
	q := NewBlockQueue(4, 4)
	w := writerOn(q)
	for v := int32(0); v < 50; v++ {
		w.Push(v)
	}
	w.Flush()
	main, spill := q.Entries()
	total := 0
	for _, v := range main {
		if v != Sentinel {
			total++
		}
	}
	total += len(spill)
	if total != 50 {
		t.Errorf("recovered %d of 50 pushed values after overflow", total)
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
		if main, _ := q.Entries(); len(main) == 0 {
			t.Fatal("queue empty after pushes")
		}
		q.Reset()
		if main, spill := q.Entries(); len(main)+len(spill) != 0 {
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
