package main

import (
	"sync"
	"time"

	"repro/internal/hpo"
	rt "repro/internal/runtime"
	"repro/internal/server"
)

// trialSeedStride is how hpo derives a trial's seed from its study's:
// spec seed + trial id × stride (hpo.ExperimentTaskDef). Inverting it is
// how a wrapped objective learns which trial it runs, so its reports can
// be matched with the SSE metric events carrying that trial id.
const trialSeedStride = 0x9e37

// tracer records spans at the daemon's exposed seams — the
// Runner.Objectives hook (objective build, each Objective.Run, and inside
// it every Report and Proceed call) and the RuntimeFactory call — keyed
// by study name. Spans stay in memory until the pass ends.
type tracer struct {
	mu      sync.Mutex
	studies map[string]*studyTrace
}

// studyTrace holds one study's spans.
type studyTrace struct {
	buildStart, buildEnd     time.Time
	factoryStart, factoryEnd time.Time
	runs                     []runTrace
}

// runTrace is one Objective.Run: its span, the training time between
// callbacks (one entry per epoch), and the time inside each Report and
// Proceed call.
type runTrace struct {
	trial      int
	start, end time.Time
	epochs     []time.Duration
	reports    []reportTrace
	gates      []time.Duration
}

type reportTrace struct {
	epoch int
	at    time.Time
	dur   time.Duration
}

func newTracer() *tracer { return &tracer{studies: make(map[string]*studyTrace)} }

func (t *tracer) study(name string) *studyTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.studies[name]
	if st == nil {
		st = &studyTrace{}
		t.studies[name] = st
	}
	return st
}

// objectives is the Runner.Objectives hook: the production objective
// build, timed, with its result wrapped.
func (t *tracer) objectives(spec server.StudySpec) (hpo.Objective, error) {
	st := t.study(spec.Name)
	start := time.Now()
	obj, err := spec.BuildObjective()
	end := time.Now()
	t.mu.Lock()
	st.buildStart, st.buildEnd = start, end
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &tracedObjective{inner: obj, seed: spec.Seed, tracer: t, study: st}, nil
}

// factory wraps a RuntimeFactory, timing each call.
func (t *tracer) factory(inner server.RuntimeFactory) server.RuntimeFactory {
	return func(spec server.StudySpec) (*rt.Runtime, func(), error) {
		st := t.study(spec.Name)
		start := time.Now()
		runtime, release, err := inner(spec)
		end := time.Now()
		t.mu.Lock()
		st.factoryStart, st.factoryEnd = start, end
		t.mu.Unlock()
		return runtime, release, err
	}
}

// tracedObjective times Run and the Report/Proceed callbacks inside it.
// The callbacks run on the trial's own goroutine, so a runTrace needs no
// lock until it is handed to the tracer.
type tracedObjective struct {
	inner  hpo.Objective
	seed   uint64
	tracer *tracer
	study  *studyTrace
}

func (o *tracedObjective) Name() string { return o.inner.Name() }

func (o *tracedObjective) Run(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
	run := runTrace{trial: int((ctx.Seed - o.seed) / trialSeedStride), start: time.Now()}
	last := run.start
	if report := ctx.Report; report != nil {
		ctx.Report = func(epoch int, acc float64) {
			t0 := time.Now()
			run.epochs = append(run.epochs, t0.Sub(last))
			report(epoch, acc)
			last = time.Now()
			run.reports = append(run.reports, reportTrace{epoch: epoch, at: t0, dur: last.Sub(t0)})
		}
	}
	if proceed := ctx.Proceed; proceed != nil {
		ctx.Proceed = func(done int) bool {
			t0 := time.Now()
			ok := proceed(done)
			last = time.Now()
			run.gates = append(run.gates, last.Sub(t0))
			return ok
		}
	}
	m, err := o.inner.Run(ctx)
	run.end = time.Now()
	o.tracer.mu.Lock()
	o.study.runs = append(o.study.runs, run)
	o.tracer.mu.Unlock()
	return m, err
}
