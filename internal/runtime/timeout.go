package runtime

import (
	"fmt"
	"time"
)

// Timeout support: TaskDef.Timeout bounds one attempt's execution, the
// COMPSs task time_out property. A timed-out attempt fails like any other
// failure and consumes a retry (same-node first, then elsewhere), which is
// the behaviour long-running HPO needs for hung trainings.

// errTimeout marks a timeout failure.
type errTimeout struct {
	taskID  int
	limit   time.Duration
	attempt int
}

func (e *errTimeout) Error() string {
	return fmt.Sprintf("runtime: task %d attempt %d exceeded its %v timeout", e.taskID, e.attempt, e.limit)
}

// launchWithTimeout wraps a Real-backend execution with the definition's
// timeout. The task function keeps running (goroutines cannot be killed),
// but its slot is released and the attempt is treated as failed; a stray
// late result is discarded.
func launchWithTimeout(fn TaskFunc, ctx *TaskContext, args []interface{}, limit time.Duration,
	done func(results []interface{}, err error)) {

	type outcome struct {
		results []interface{}
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := runSafely(fn, ctx, args)
		ch <- outcome{res, err}
	}()
	go func() {
		timer := time.NewTimer(limit)
		defer timer.Stop()
		select {
		case o := <-ch:
			done(o.results, o.err)
		case <-timer.C:
			done(nil, &errTimeout{taskID: ctx.TaskID, limit: limit, attempt: ctx.Attempt})
		}
	}()
}
