package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/datasets"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// endToEnd computes the user-visible metrics of an untraced pass, with a
// note on the blocks it used. They are taken over the pass's quiet blocks
// (see quietBlocks): rates are the median over those blocks, latency
// percentiles pool every study in them. makespan_s is the time the
// workload's fixed work, its first makespanStudies studies, takes at the
// median block rate; the mean final loss averages the trials of exactly
// those studies.
func endToEnd(p *pass, makespanStudies int, setup []float64) (metricSet, string) {
	bs := p.fullBlocks()
	kept, steal := p.quietBlocks(bs)
	var rates, epochRates, walls, firsts, losses []float64
	for _, b := range kept {
		first, last := span(b)
		elapsed := last.Sub(first).Seconds()
		if elapsed <= 0 {
			continue // every study of the block failed before its end
		}
		done, epochs := 0, 0
		for _, r := range b {
			epochs += r.metrics
			if r.err == nil {
				done++
				walls = append(walls, ms(r.wall()))
				firsts = append(firsts, ms(r.firstResult.Sub(r.sent)))
			}
		}
		rates = append(rates, float64(done)/elapsed)
		epochRates = append(epochRates, float64(epochs)/elapsed)
	}
	note := "no complete block"
	if len(kept) > 0 {
		sort.Float64s(steal)
		note = fmt.Sprintf("over the %d of %d blocks of %d studies with the least CPU steal (%.1f%%-%.1f%%; whole pass %.1f%%)",
			len(kept), len(bs), len(bs[0]), 100*steal[0], 100*steal[len(steal)-1], 100*p.steal.share(span(p.studies)))
	}
	for _, r := range p.studies {
		if r.err == nil && r.plan.index < makespanStudies {
			for _, id := range sortedTrialIDs(r) {
				losses = append(losses, r.trials[id].finalLoss)
			}
		}
	}
	return metricSet{
		"setup_s":             {median(setup), "s"},
		"makespan_s":          {float64(makespanStudies) / median(rates), "s"},
		"epochs_per_s":        {median(epochRates), "1/s"},
		"studies_per_s":       {median(rates), "1/s"},
		"study_p50_ms":        {median(walls), "ms"},
		"study_p95_ms":        {percentile(walls, 95), "ms"},
		"first_result_p50_ms": {median(firsts), "ms"},
		"first_result_p95_ms": {percentile(firsts, 95), "ms"},
		"mean_final_loss":     {mean(losses), "nat"},
		"peak_rss_mb":         {p.workRSSMB, "MB"},
	}, note
}

// span returns the first create and the last terminal event of studies.
func span(studies []*studyRun) (time.Time, time.Time) {
	var first, last time.Time
	for _, r := range studies {
		if first.IsZero() || r.sent.Before(first) {
			first = r.sent
		}
		if r.terminal.After(last) {
			last = r.terminal
		}
	}
	return first, last
}

func sortedTrialIDs(r *studyRun) []int {
	ids := make([]int, 0, len(r.trials))
	for id := range r.trials {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// breakdown is the mean traced study's wall time split along its
// critical path — create → queue → objective build → runtime set-up →
// first dispatch → trial runs → finish lag — plus the unexplained rest.
// Inside the run span, trials overlap, so their content is in core-ms.
type breakdown struct {
	studies                                                  int
	wall, create, queue, build, setup, dispatch, run, finish float64
	residual, residualP50                                    float64
	train, report, gate                                      float64
	overheadPct                                              float64
}

// perLayer computes the per-layer metrics from a traced pass, its spans
// and /metrics deltas. overheadPct is the traced pass's study_p50_ms
// against the untraced one's, both taken over their least-stolen blocks.
func perLayer(traced *pass, tr *tracer, opens []float64, cores int, overheadPct float64) (metricSet, breakdown) {
	var (
		creates, queues, builds, setups, firstDispatch, gaps []float64
		finishLags, reports, reportToClient, gateWaits       []float64
		epochTimes, residuals                                []float64
		runBusy, flops                                       float64
		bd                                                   breakdown
	)
	features := datasets.MNISTLike(1, 1).Features()
	trials, memoized := 0, 0
	for _, r := range traced.studies {
		trials += r.summaryTrials
		memoized += r.memoized
		st := tr.studies[r.plan.name]
		if r.err != nil || st == nil || st.buildStart.IsZero() || st.factoryEnd.IsZero() {
			continue
		}
		creates = append(creates, ms(r.created.Sub(r.sent)))
		queues = append(queues, math.Max(0, ms(st.buildStart.Sub(r.created))))
		builds = append(builds, ms(st.buildEnd.Sub(st.buildStart)))
		setups = append(setups, ms(st.factoryEnd.Sub(st.factoryStart)))

		runs := append([]runTrace(nil), st.runs...)
		sort.Slice(runs, func(i, j int) bool { return runs[i].start.Before(runs[j].start) })
		train, rep, gate := 0.0, 0.0, 0.0
		lastEnd := st.factoryEnd
		if len(runs) > 0 {
			firstDispatch = append(firstDispatch, ms(runs[0].start.Sub(st.factoryEnd)))
			for _, run := range runs {
				if run.end.After(lastEnd) {
					lastEnd = run.end
				}
			}
		}
		for i, run := range runs {
			runBusy += run.end.Sub(run.start).Seconds()
			// The next trial to start once this one returned.
			for _, next := range runs[i+1:] {
				if !next.start.Before(run.end) {
					gaps = append(gaps, ms(next.start.Sub(run.end)))
					break
				}
			}
			for _, e := range run.epochs {
				epochTimes = append(epochTimes, ms(e))
				train += ms(e)
			}
			for _, rp := range run.reports {
				reports = append(reports, float64(rp.dur)/float64(time.Microsecond))
				rep += ms(rp.dur)
				if at, ok := r.metricAt[[2]int{run.trial, rp.epoch}]; ok {
					reportToClient = append(reportToClient, ms(at.Sub(rp.at)))
				}
			}
			for _, g := range run.gates {
				gateWaits = append(gateWaits, ms(g))
				gate += ms(g)
			}
		}
		finishLags = append(finishLags, ms(r.terminal.Sub(lastEnd)))
		wall := ms(r.wall())

		// The critical path: each named interval runs from the later of
		// its own start and the previous interval's end, so overlaps
		// (execution starting before the create response arrives) are
		// not counted twice and the residual is the uncovered time.
		path := []time.Time{r.sent, r.created, st.buildStart, st.buildEnd, st.factoryStart, st.factoryEnd}
		if len(runs) > 0 {
			path = append(path, runs[0].start, lastEnd)
		} else {
			path = append(path, st.factoryEnd, st.factoryEnd)
		}
		path = append(path, r.terminal)
		seg := make([]float64, len(path)-1)
		at := path[0]
		for i, t := range path[1:] {
			if t.After(at) {
				seg[i] = ms(t.Sub(at))
				at = t
			}
		}
		// seg: create, queue, build, (build end → factory start),
		// set-up, first dispatch, trial runs, finish lag.
		residual := wall - (seg[0] + seg[1] + seg[2] + seg[4] + seg[5] + seg[6] + seg[7])
		residuals = append(residuals, residual)

		bd.studies++
		bd.wall += wall
		bd.create += seg[0]
		bd.queue += seg[1]
		bd.build += seg[2]
		bd.setup += seg[4]
		bd.dispatch += seg[5]
		bd.run += seg[6]
		bd.finish += seg[7]
		bd.residual += residual
		bd.train += train
		bd.report += rep
		bd.gate += gate

		if !r.plan.resubmit {
			nTrain := int(float64(r.plan.samples) * 0.8)
			for _, t := range r.trials {
				hidden := t.hidden
				if hidden <= 0 {
					hidden = r.plan.hidden
				}
				flops += float64(t.epochs) * mlpEpochFLOPs(mlpLayers(features, []int{hidden}, 10), nTrain, r.plan.samples-nTrain)
			}
		}
	}
	if bd.studies > 0 {
		n := float64(bd.studies)
		for _, f := range []*float64{&bd.wall, &bd.create, &bd.queue, &bd.build, &bd.setup, &bd.dispatch,
			&bd.run, &bd.finish, &bd.residual, &bd.train, &bd.report, &bd.gate} {
			*f /= n
		}
	}
	bd.residualP50 = median(residuals)

	first, last := span(traced.studies)
	makespan := last.Sub(first).Seconds()
	coreSeconds := makespan * float64(cores)
	trainBusy := sum(epochTimes) / 1000
	nStudies := float64(len(traced.studies))
	d := func(name string) float64 { return delta(traced.before, traced.after, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	appends := d("hpo_store_appends_total")
	epochs := d("hpo_study_epochs_total")

	bd.overheadPct = overheadPct

	return metricSet{
		"store.open_ms":                  {median(opens), "ms"},
		"store.appends_per_study":        {ratio(appends, nStudies), "count"},
		"store.fsyncs_per_study":         {ratio(d("hpo_store_fsync_batches_total"), nStudies), "count"},
		"store.records_per_fsync":        {ratio(d("hpo_store_fsync_batch_records_sum"), d("hpo_store_fsync_batch_records_count")), "count"},
		"store.bytes_per_record":         {ratio(d("hpo_store_append_bytes_total"), appends), "B"},
		"server.create_p50_ms":           {median(creates), "ms"},
		"server.create_p95_ms":           {percentile(creates, 95), "ms"},
		"server.sse_wakeups_per_event":   {ratio(d("hpod_sse_fanout_lag_events_count"), d("hpod_sse_events_sent_total")), "ratio"},
		"server.report_to_client_p50_ms": {median(reportToClient), "ms"},
		"server.report_to_client_p95_ms": {percentile(reportToClient, 95), "ms"},
		"server.finish_lag_p50_ms":       {median(finishLags), "ms"},
		"server.finish_lag_p95_ms":       {percentile(finishLags, 95), "ms"},
		"runner.queue_wait_p50_ms":       {median(queues), "ms"},
		"runner.queue_wait_p95_ms":       {percentile(queues, 95), "ms"},
		"datasets.build_p50_ms":          {median(builds), "ms"},
		"runtime.setup_p50_ms":           {median(setups), "ms"},
		"runtime.first_dispatch_p50_ms":  {median(firstDispatch), "ms"},
		"runtime.dispatch_gap_p50_ms":    {median(gaps), "ms"},
		"runtime.dispatch_gap_p95_ms":    {percentile(gaps, 95), "ms"},
		"runtime.core_utilisation":       {ratio(runBusy, coreSeconds), "ratio"},
		"runtime.idle_core_s":            {coreSeconds - runBusy, "s"},
		"runtime.extend_grant_mean_us":   {1e6 * ratio(d("hpo_runtime_extend_grant_latency_seconds_sum"), d("hpo_runtime_extend_grant_latency_seconds_count")), "us"},
		"runtime.tasks_retried":          {d("hpo_runtime_tasks_retried_total"), "count"},
		"hpo.report_p50_us":              {median(reports), "us"},
		"hpo.report_p95_us":              {percentile(reports, 95), "us"},
		"hpo.report_total_s":             {sum(reports) / 1e6, "s"},
		"hpo.gate_wait_p50_ms":           {median(gateWaits), "ms"},
		"hpo.gate_wait_total_s":          {sum(gateWaits) / 1000, "s"},
		"hpo.epochs":                     {epochs, "count"},
		"hpo.promotions":                 {d("hpo_sched_promotions_total"), "count"},
		"hpo.halts":                      {d("hpo_sched_halts_total"), "count"},
		"hpo.epochs_vs_baseline":         {ratio(epochs, d("hpo_sched_baseline_epochs_total")), "ratio"},
		"hpo.memo_hit_ratio":             {ratio(float64(memoized), float64(trials)), "ratio"},
		"nn.epoch_p50_ms":                {median(epochTimes), "ms"},
		"nn.epoch_p95_ms":                {percentile(epochTimes, 95), "ms"},
		"nn.train_busy_s":                {trainBusy, "s"},
		"nn.compute_share":               {ratio(trainBusy, coreSeconds), "ratio"},
		"tensor.gflops_computed":         {ratio(flops/1e9, trainBusy), "GFLOP/s"},
		"trace.overhead_pct":             {bd.overheadPct, "%"},
		"residual.study_p50_ms":          {bd.residualP50, "ms"},
	}, bd
}

func studyWalls(p *pass) []float64 {
	var walls []float64
	for _, r := range p.studies {
		if r.err == nil {
			walls = append(walls, ms(r.wall()))
		}
	}
	return walls
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics writes one "name value unit" line per metric, in name
// order.
func printMetrics(w io.Writer, m metricSet) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printTail says which percentile a sample count supports.
func printTail(w io.Writer, what string, n int) {
	if p, ok := tailPercentile(n); ok {
		fmt.Fprintf(w, "  %s: %d samples; highest percentile with >=10 beyond it: p%g\n", what, n, p)
	} else {
		fmt.Fprintf(w, "  %s: %d samples; too few for any percentile to have 10 beyond it\n", what, n)
	}
}

// printBreakdown shows how the layers add up to the mean traced study.
func printBreakdown(w io.Writer, bd breakdown) {
	fmt.Fprintf(w, "critical path of the mean traced study (%d studies), ms:\n", bd.studies)
	rows := []struct {
		name string
		v    float64
	}{
		{"server create round trip", bd.create},
		{"runner queue wait", bd.queue},
		{"datasets objective build", bd.build},
		{"runtime set-up", bd.setup},
		{"runtime first dispatch", bd.dispatch},
		{"trial runs (first start to last end)", bd.run},
		{"server finish lag", bd.finish},
		{"residual (unexplained)", bd.residual},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "  %-38s %10.3f  %5.1f%%\n", row.name, row.v, 100*row.v/bd.wall)
	}
	fmt.Fprintf(w, "  %-38s %10.3f\n", "= study wall (create to terminal event)", bd.wall)
	fmt.Fprintf(w, "  inside the trial runs, core-ms: nn training %.3f, hpo report %.3f, hpo gate wait %.3f\n",
		bd.train, bd.report, bd.gate)
	fmt.Fprintf(w, "  tracing overhead on study_p50: %+.2f%%; residual p50: %.3f ms\n", bd.overheadPct, bd.residualP50)
}
