package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestTimeoutFailsHungTaskReal(t *testing.T) {
	rt := newRealRT(t, 2, 0)
	release := make(chan struct{})
	defer close(release)
	rt.MustRegister(TaskDef{
		Name: "hang", MaxRetries: -1, Timeout: 50 * time.Millisecond,
		Fn: func(*TaskContext, []interface{}) ([]interface{}, error) {
			<-release
			return nil, nil
		},
	})
	f, _ := rt.Submit1("hang")
	start := time.Now()
	_, err := rt.WaitOn(f)
	var te *errTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v to fire", elapsed)
	}
	// The slot must be released: a healthy task still runs.
	rt.MustRegister(echoDef("echo"))
	f2, _ := rt.Submit1("echo", 5)
	if vals, err := rt.WaitOn(f2); err != nil || vals[0].(int) != 5 {
		t.Fatalf("post-timeout task: %v %v", vals, err)
	}
	rt.Shutdown()
}

func TestTimeoutRetrySucceeds(t *testing.T) {
	rt := newRealRT(t, 1, 0)
	gate := make(chan struct{})
	var attempts atomic.Int32
	rt.MustRegister(TaskDef{
		Name: "flaky-slow", Returns: 1, MaxRetries: 1, Timeout: 60 * time.Millisecond,
		Fn: func(ctx *TaskContext, args []interface{}) ([]interface{}, error) {
			if attempts.Add(1) == 1 {
				<-gate // first attempt hangs past the timeout
			}
			return []interface{}{"ok"}, nil
		},
	})
	f, _ := rt.Submit1("flaky-slow")
	vals, err := rt.WaitOn(f)
	close(gate)
	if err != nil {
		t.Fatalf("retry after timeout should succeed: %v", err)
	}
	if vals[0].(string) != "ok" {
		t.Fatalf("vals = %v", vals)
	}
	if rt.Stats().Retried != 1 {
		t.Fatalf("stats = %+v", rt.Stats())
	}
	rt.Shutdown()
}

func TestTimeoutFastTaskUnaffected(t *testing.T) {
	rt := newRealRT(t, 1, 0)
	rt.MustRegister(TaskDef{
		Name: "quick", Returns: 1, Timeout: time.Second,
		Fn: func(*TaskContext, []interface{}) ([]interface{}, error) {
			return []interface{}{42}, nil
		},
	})
	f, _ := rt.Submit1("quick")
	vals, err := rt.WaitOn(f)
	if err != nil || vals[0].(int) != 42 {
		t.Fatalf("fast task hit by timeout: %v %v", vals, err)
	}
	rt.Shutdown()
}

func TestTimeoutSimBackend(t *testing.T) {
	rt := newSimRT(t, cluster.Uniform("s", 1, 1, 0, 1, 1))
	rt.MustRegister(TaskDef{
		Name: "slow", MaxRetries: -1, Timeout: time.Minute,
		Cost: fixedCost(time.Hour),
	})
	f, _ := rt.Submit1("slow")
	_, err := rt.WaitOn(f)
	var te *errTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Virtual time advanced only to the timeout, not the full duration.
	if rt.Now() != time.Minute {
		t.Fatalf("sim clock = %v, want 1m", rt.Now())
	}
	rt.Shutdown()
}

func TestTimeoutSimWithinLimit(t *testing.T) {
	rt := newSimRT(t, cluster.Uniform("s", 1, 1, 0, 1, 1))
	rt.MustRegister(TaskDef{Name: "ok", Timeout: time.Hour, Cost: fixedCost(time.Minute)})
	f, _ := rt.Submit1("ok")
	if _, err := rt.WaitOn(f); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
}
