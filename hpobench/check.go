package main

import (
	"fmt"

	"repro/internal/store"
)

// checkPass verifies a pass's outputs. It returns how many studies
// failed a check and a description of every failure, pass-wide ones
// included.
func checkPass(p *pass) (failedStudies int, failures []string) {
	label := "untraced"
	if p.traced {
		label = "traced"
	}
	fail := func(r *studyRun, format string, args ...interface{}) {
		failures = append(failures, fmt.Sprintf("%s %s (%s): %s", label, r.plan.name, r.id, fmt.Sprintf(format, args...)))
	}
	metrics := 0
	for _, r := range p.studies {
		n := len(failures)
		metrics += r.metrics
		switch {
		case r.err != nil:
			fail(r, "%v", r.err)
		case r.state != store.StateDone:
			fail(r, "ended %q, want done", r.state)
		case r.plan.resubmit:
			if r.summaryTrials == 0 || r.memoized != r.summaryTrials {
				fail(r, "resubmission memoised %d of %d trials, want all", r.memoized, r.summaryTrials)
			}
			if r.metrics != 0 {
				fail(r, "resubmission streamed %d metric events, want 0", r.metrics)
			}
		default:
			epochs := 0
			for _, t := range r.trials {
				epochs += t.epochs
			}
			if r.metrics != epochs {
				fail(r, "streamed %d metric events for %d recorded epochs", r.metrics, epochs)
			}
		}
		if r.err == nil && r.plan.gridSize > 0 && (len(r.trials) != r.plan.gridSize || r.summaryTrials != r.plan.gridSize) {
			fail(r, "settled %d trials (summary %d), want the grid's %d", len(r.trials), r.summaryTrials, r.plan.gridSize)
		}
		if len(failures) > n {
			failedStudies++
		}
	}
	if len(p.studies) == 0 {
		failures = append(failures, label+" pass completed no study")
	}
	if d := delta(p.before, p.after, "hpo_study_epochs_total"); float64(metrics) != d {
		failures = append(failures, fmt.Sprintf("%s pass streamed %d metric events but hpo_study_epochs_total moved by %.0f", label, metrics, d))
	}
	return failedStudies, failures
}

// checkRepeatable verifies that each grid study of the traced pass
// reached the bit-identical mean final loss as the untraced study with
// the same index: trial seeds are fixed and each trial trains on one
// core, so the result may not depend on tracing or timing.
func checkRepeatable(untraced, traced *pass) []string {
	want := make(map[int]*studyRun)
	for _, r := range untraced.studies {
		if r.err == nil && r.plan.gridSize > 0 {
			want[r.plan.index] = r
		}
	}
	var failures []string
	for _, r := range traced.studies {
		u := want[r.plan.index]
		if r.err != nil || u == nil {
			continue
		}
		if got, exp := r.meanFinalLoss(), u.meanFinalLoss(); got != exp {
			failures = append(failures, fmt.Sprintf("%s mean final loss %v differs from untraced %s's %v",
				r.plan.name, got, u.plan.name, exp))
		}
	}
	return failures
}
