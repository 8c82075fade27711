package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	rt "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/store"
)

// The defaults of cmd/hpod's flags that shape a local daemon. The
// benchmark serves exactly that configuration: fsync on (no NoSync), two
// concurrently executing studies and the background compaction period;
// the waiting room, Retry-After hint, event window and segment cap are
// left at the server's and journal's defaults, which hpod's flags match.
const (
	hpodMaxStudies      = 2
	hpodDrain           = 30 * time.Second
	hpodCompactInterval = 10 * time.Minute
)

// daemon is an in-process hpod on a loopback listener.
type daemon struct {
	journal *store.Journal
	srv     *server.Server
	http    *http.Server
	served  chan error
	base    string
	// openTime is how long store.OpenJournal took at boot.
	openTime time.Duration
}

// bootDaemon opens the journal at path and serves hpod on 127.0.0.1 with
// a Real-backend cluster.Local(parallel) runtime per study, wired as
// cmd/hpod wires it. A non-nil tracer wraps the daemon's two exposed
// seams, Runner.Objectives and the RuntimeFactory; nil serves the
// untouched production path.
func bootDaemon(path string, parallel int, tr *tracer) (*daemon, error) {
	t0 := time.Now()
	journal, err := store.OpenJournal(path, store.JournalOptions{CompactInterval: hpodCompactInterval})
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	openTime := time.Since(t0)
	factory := localFactory(parallel)
	if tr != nil {
		factory = tr.factory(factory)
	}
	srv := server.New(journal, factory, hpodMaxStudies)
	if tr != nil {
		srv.Runner().Objectives = tr.objectives
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		return nil, err
	}
	if _, err := srv.Runner().Resume(); err != nil {
		ln.Close()
		journal.Close()
		return nil, fmt.Errorf("resuming journaled studies: %w", err)
	}
	d := &daemon{
		journal:  journal,
		srv:      srv,
		http:     &http.Server{Handler: srv.Handler()},
		served:   make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		openTime: openTime,
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// localFactory is cmd/hpod's -backend local factory: one simulated node
// with parallel cores executing trials on goroutines.
func localFactory(parallel int) server.RuntimeFactory {
	return func(spec server.StudySpec) (*rt.Runtime, func(), error) {
		runtime, err := rt.New(rt.Options{Cluster: cluster.Local(parallel), Backend: rt.Real})
		if err != nil {
			return nil, nil, err
		}
		return runtime, runtime.Shutdown, nil
	}
}

// stop shuts the daemon down as hpod does on SIGTERM: stop serving, drain
// running studies, close the journal, and wait for the serve loop.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	drained := d.srv.Runner().Close(hpodDrain)
	err := d.journal.Close()
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if !drained && err == nil {
		err = errors.New("daemon did not drain its running studies")
	}
	return err
}
