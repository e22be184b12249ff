package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueAdmissionControl(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 16)
	q := NewQueue(1, 1, func(_ int, j *Job) {
		started <- j.ID
		<-block
	})

	// First job occupies the worker, second fills the queue, third bounces.
	if err := q.Submit(newJob("a", JobSpec{}, nil, "", "")); err != nil {
		t.Fatal(err)
	}
	<-started // "a" is running; the queue slot is free again
	if err := q.Submit(newJob("b", JobSpec{}, nil, "", "")); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(newJob("c", JobSpec{}, nil, "", "")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	st := q.Stats()
	if st.Submitted != 2 || st.Rejected != 1 || st.Running != 1 || st.Queued != 1 {
		t.Errorf("stats = %+v", st)
	}

	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q.BeginDrain()
	if err := q.AwaitDrain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(newJob("d", JobSpec{}, nil, "", "")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	st = q.Stats()
	if st.Completed != 2 || !st.Draining {
		t.Errorf("stats after drain = %+v", st)
	}
}

func TestQueueDrainWaitsForInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	q := NewQueue(1, 4, func(_ int, j *Job) {
		close(started)
		<-release
		finished.Store(true)
	})
	if err := q.Submit(newJob("a", JobSpec{}, nil, "", "")); err != nil {
		t.Fatal(err)
	}
	<-started

	q.BeginDrain()
	drained := make(chan error, 1)
	go func() { drained <- q.AwaitDrain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a job was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Error("drain returned before the in-flight job finished")
	}
}

func TestStreamFollowsWrites(t *testing.T) {
	s := NewStream()
	s.WriteLine(map[string]int{"n": 1})

	type sink struct{ b []byte }
	got := make(chan string, 1)
	go func() {
		var buf sink
		w := writerFunc(func(p []byte) (int, error) {
			buf.b = append(buf.b, p...)
			return len(p), nil
		})
		if err := s.WriteTo(context.Background(), w, nil); err != nil {
			t.Error(err)
		}
		got <- string(buf.b)
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block mid-stream
	s.WriteLine(map[string]int{"n": 2})
	s.Close()
	want := "{\"n\":1}\n{\"n\":2}\n"
	if g := <-got; g != want {
		t.Errorf("streamed %q, want %q", g, want)
	}
	if s.Len() != len(want) {
		t.Errorf("Len = %d, want %d", s.Len(), len(want))
	}
	// Writes after Close are dropped.
	s.WriteLine(map[string]int{"n": 3})
	if string(s.Bytes()) != want {
		t.Error("write after Close was retained")
	}
}

func TestStreamReaderCancellation(t *testing.T) {
	s := NewStream()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- s.WriteTo(ctx, writerFunc(func(p []byte) (int, error) { return len(p), nil }), nil)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("WriteTo = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled reader did not return")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
