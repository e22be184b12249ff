package serve

import (
	"context"
	"errors"
	"sync"
)

// Admission-control errors, mapped by the HTTP layer to 429 (+Retry-After)
// and 503 respectively.
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrDraining  = errors.New("serve: server draining, not accepting jobs")
)

// QueueStats is the /metricsz snapshot of queue activity. QueuedMax and
// RunningMax are lifetime high-water marks for capacity tuning: a
// QueuedMax pinned at Depth means the queue saturated (and some
// submits likely bounced with 429s), a RunningMax below Workers means the
// worker pool never filled.
type QueueStats struct {
	Workers    int   `json:"workers"`
	Depth      int   `json:"depth"`
	Queued     int   `json:"queued"`
	QueuedMax  int   `json:"queued_max"`
	Submitted  int64 `json:"submitted"`
	Rejected   int64 `json:"rejected"`
	Running    int   `json:"running"`
	RunningMax int   `json:"running_max"`
	Completed  int64 `json:"completed"`
	Draining   bool  `json:"draining"`
}

// Queue is a bounded job queue drained by a fixed worker pool. Admission
// is non-blocking: a submit against a full queue fails immediately with
// ErrQueueFull (backpressure for the HTTP layer to convert into 429), and
// once draining has begun every submit fails with ErrDraining. Drain lets
// everything already admitted — queued and in-flight — run to completion.
type Queue struct {
	jobs chan *Job
	exec func(workerID int, j *Job)
	wg   sync.WaitGroup

	mu         sync.Mutex
	workers    int
	draining   bool
	submitted  int64
	rejected   int64
	running    int
	completed  int64
	queuedMax  int
	runningMax int
}

// NewQueue starts workers goroutines draining a queue of the given depth.
// exec runs one job on one worker; it must contain its own panics.
func NewQueue(workers, depth int, exec func(workerID int, j *Job)) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	q := &Queue{jobs: make(chan *Job, depth), exec: exec}
	q.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go q.worker(w)
	}
	q.mu.Lock()
	q.workers = workers
	q.mu.Unlock()
	return q
}

func (q *Queue) worker(id int) {
	defer q.wg.Done()
	for j := range q.jobs {
		q.mu.Lock()
		q.running++
		if q.running > q.runningMax {
			q.runningMax = q.running
		}
		q.mu.Unlock()
		q.exec(id, j)
		q.mu.Lock()
		q.running--
		q.completed++
		q.mu.Unlock()
	}
}

// Submit admits j or reports why it cannot.
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.rejected++
		return ErrDraining
	}
	select {
	case q.jobs <- j:
		q.submitted++
		if n := len(q.jobs); n > q.queuedMax {
			q.queuedMax = n
		}
		return nil
	default:
		q.rejected++
		return ErrQueueFull
	}
}

// Draining reports whether BeginDrain has been called.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// BeginDrain stops admission: every later Submit fails with ErrDraining.
// Idempotent. Splitting this from AwaitDrain lets the server cancel
// queued-but-unstarted jobs *after* admission has stopped (so none can
// slip in behind the cancellation sweep) and *before* waiting, keeping
// the drain wait bounded by the jobs already in flight.
func (q *Queue) BeginDrain() {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.jobs)
	}
	q.mu.Unlock()
}

// AwaitDrain waits until every admitted job has been handed to a worker
// and finished, or until ctx is cancelled (the workers keep draining in
// the background in that case; the caller is abandoning the wait, not the
// jobs). Call BeginDrain first.
func (q *Queue) AwaitDrain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Workers:    q.workers,
		Depth:      cap(q.jobs),
		Queued:     len(q.jobs),
		QueuedMax:  q.queuedMax,
		Submitted:  q.submitted,
		Rejected:   q.rejected,
		Running:    q.running,
		RunningMax: q.runningMax,
		Completed:  q.completed,
		Draining:   q.draining,
	}
}
