package runtime

import (
	"errors"
	"testing"
	"time"
)

func TestJobLifecycleAndErrors(t *testing.T) {
	p := NewPool()
	boom := errors.New("boom")
	j, err := p.Submit("fails", func() error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if werr := j.Wait(); !errors.Is(werr, boom) {
		t.Fatalf("Wait = %v", werr)
	}
	if j.State() != JobFailed || j.State().String() != "failed" {
		t.Fatalf("state = %v", j.State())
	}

	ok, _ := p.Submit("succeeds", func() error { return nil })
	<-ok.Done()
	if ok.State() != JobDone || ok.Err() != nil {
		t.Fatalf("state=%v err=%v", ok.State(), ok.Err())
	}

	// Resubmitting a finished name runs again with a fresh handle.
	again, _ := p.Submit("succeeds", func() error { return boom })
	if again == ok {
		t.Fatal("finished job handle was reused")
	}
	if werr := again.Wait(); !errors.Is(werr, boom) {
		t.Fatalf("rerun Wait = %v", werr)
	}
	got, found := p.Job("succeeds")
	if !found || got != again {
		t.Fatal("registry should hold the latest handle")
	}
}

func TestPoolSubmitIdempotentWhileLive(t *testing.T) {
	p := NewPool()
	gate := make(chan struct{})
	j1, _ := p.Submit("s", func() error { <-gate; return nil })
	j2, _ := p.Submit("s", func() error { t.Error("second fn must not run"); return nil })
	if j1 != j2 {
		t.Fatal("live resubmit must return the existing handle")
	}
	close(gate)
	if err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool()
	p.Close()
	if _, err := p.Submit("x", func() error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if !p.Drain(time.Second) {
		t.Fatal("empty pool must drain")
	}
}
