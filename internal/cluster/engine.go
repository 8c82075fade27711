package cluster

import (
	"container/heap"
	"fmt"
	"time"
)

// Engine is a deterministic discrete-event simulation engine with virtual
// time. It is single-goroutine by design: callbacks scheduled with At/After
// run inside Step/Run on the caller's goroutine, so simulated schedulers
// need no locking and runs are exactly reproducible.
type Engine struct {
	now    time.Duration
	pq     eventHeap
	nextID int64
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at absolute virtual time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("cluster: scheduling event in the past: %v < %v", t, e.now))
	}
	e.nextID++
	heap.Push(&e.pq, &event{at: t, seq: e.nextID, fn: fn})
}

// After schedules fn to run delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("cluster: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// Step delivers the next event, advancing virtual time. It returns false if
// no events remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run delivers events until none remain and returns the final virtual time.
func (e *Engine) Run() time.Duration {
	for e.Step() {
	}
	return e.now
}

// event is a scheduled callback; seq breaks ties so same-time events fire in
// scheduling order (determinism).
type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
