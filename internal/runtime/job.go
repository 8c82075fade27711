package runtime

import (
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed reports a Submit on a closed Pool.
var ErrPoolClosed = errors.New("runtime: job pool closed")

// JobState is the lifecycle of an asynchronous job.
type JobState int

// Job lifecycle states.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
)

// String renders the state for status APIs.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// Job is a handle to an asynchronously executing workload — typically a
// whole study submitted to a Pool, complementing the per-task Future. It is
// safe for concurrent use.
type Job struct {
	name string
	done chan struct{}

	mu    sync.Mutex
	state JobState
	err   error
}

// Name returns the job's identifier (unique within its pool).
func (j *Job) Name() string { return j.name }

// Done returns a channel closed when the job finishes (either outcome).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its error.
func (j *Job) Wait() error {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's error (nil while unfinished or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Pool runs each submitted job on its own goroutine and tracks it by name.
// It is the control plane's study executor — each job typically owns one
// Runtime for the duration of a study. The pool does not bound
// concurrency: jobs that must share capacity wait inside fn (the server's
// admission queue).
type Pool struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	wg     sync.WaitGroup
}

// NewPool builds an empty pool.
func NewPool() *Pool {
	return &Pool{jobs: make(map[string]*Job)}
}

// Submit queues fn under name and returns its handle immediately.
// Resubmitting a name whose previous job has finished replaces the handle;
// resubmitting a live job returns the existing handle (idempotent starts).
func (p *Pool) Submit(name string, fn func() error) (*Job, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if old, ok := p.jobs[name]; ok {
		if st := old.State(); st == JobQueued || st == JobRunning {
			p.mu.Unlock()
			return old, nil
		}
	}
	j := &Job{name: name, done: make(chan struct{})}
	p.jobs[name] = j
	p.wg.Add(1)
	p.mu.Unlock()

	go func() {
		defer p.wg.Done()
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		err := fn()
		j.mu.Lock()
		j.err = err
		if err != nil {
			j.state = JobFailed
		} else {
			j.state = JobDone
		}
		j.mu.Unlock()
		close(j.done)
	}()
	return j, nil
}

// Job returns the handle registered under name.
func (p *Pool) Job(name string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[name]
	return j, ok
}

// Close rejects further submissions. Already-queued jobs still run; use
// Drain to wait for them.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Drain waits for all submitted jobs to finish, up to timeout (zero waits
// forever). It reports whether the pool fully drained — false means jobs
// were abandoned mid-flight, the caller's cue that a restart will need to
// resume them from persistent state.
func (p *Pool) Drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}
