package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 50, false}, {19, 50, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

const promText = `# HELP hpo_store_appends_total Journal records appended, by record type.
# TYPE hpo_store_appends_total counter
hpo_store_appends_total{type="metric"} 40
hpo_store_appends_total{type="trial"} 8
# TYPE hpo_store_appends_total_extra counter
hpo_store_appends_total_extra 1000
# TYPE hpod_sse_fanout_lag_events histogram
hpod_sse_fanout_lag_events_bucket{le="1"} 3
hpod_sse_fanout_lag_events_bucket{le="+Inf"} 5
hpod_sse_fanout_lag_events_sum 12
hpod_sse_fanout_lag_events_count 5
# TYPE hpod_http_requests_total counter
hpod_http_requests_total{endpoint="POST /v1/studies",code="201"} 7
# TYPE hpo_sched_promotions_total counter
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`{type="metric"} 40`, `{type="metric"} 100`,
		"_count 5", "_count 9",
		`code="201"} 7`, `code="201"} 8`,
	).Replace(promText)))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("hpo_store_appends_total"); got != 48 {
		t.Errorf("sum over labels = %v, want 48 (the _extra family must not be included)", got)
	}
	for name, want := range map[string]float64{
		"hpo_store_appends_total":          60,
		"hpod_sse_fanout_lag_events_count": 4,
		"hpod_sse_fanout_lag_events_sum":   0,
		"hpod_http_requests_total":         1,
		"hpo_sched_promotions_total":       0,
	} {
		if got := delta(before, after, name); got != want {
			t.Errorf("delta(%s) = %v, want %v", name, got, want)
		}
	}
	if !before.families["hpo_sched_promotions_total"] {
		t.Error("a family declared without series is missing from families")
	}
	if _, err := parseProm(strings.NewReader("hpo_x_total notanumber\n")); err == nil {
		t.Error("a malformed value parsed without error")
	}
}

// TestProductionFamilies pins every /metrics family the benchmark reads to
// the daemon's real registry, so renaming one breaks this test instead of
// silently reading zero.
func TestProductionFamilies(t *testing.T) {
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"hpo_store_appends_total", "hpo_store_append_bytes_total", "hpo_store_fsync_batches_total",
		"hpo_store_fsync_batch_records", "hpod_sse_fanout_lag_events", "hpod_sse_events_sent_total",
		"hpo_runtime_extend_grant_latency_seconds", "hpo_runtime_tasks_retried_total",
		"hpo_study_epochs_total", "hpo_sched_promotions_total", "hpo_sched_halts_total",
		"hpo_sched_baseline_epochs_total",
	} {
		if !s.families[name] {
			t.Errorf("/metrics declares no family %s", name)
		}
	}
}

func TestReadSSE(t *testing.T) {
	stream := ": comment\n" +
		"id: 1\nevent: study\ndata: {\"a\":1}\n\n" +
		"id: 2\nevent: metric\ndata: line1\ndata: line2\n\n" +
		"\n" +
		"id: 3\nevent: state\ndata:{\"state\":\"done\"}\n\n" +
		"id: 4\nevent: trial\ndata: cut off"
	var got []sseEvent
	if err := readSSE(strings.NewReader(stream), func(e sseEvent) bool {
		got = append(got, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []sseEvent{
		{"1", "study", `{"a":1}`},
		{"2", "metric", "line1\nline2"},
		{"3", "state", `{"state":"done"}`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	n := 0
	_ = readSSE(strings.NewReader(stream), func(sseEvent) bool { n++; return false })
	if n != 1 {
		t.Errorf("returning false delivered %d events, want 1", n)
	}
}

func TestMLPEpochFLOPs(t *testing.T) {
	// 4 → 3 → 2: the products are 4·3 = 12 and 3·2 = 6 multiply-adds.
	// A training sample costs 2·18 forward, 2·18 weight gradient and 2·6
	// input gradient (the first layer has none) = 84 FLOPs; a validation
	// sample 36. Ten training and five validation samples: 840 + 180.
	layers := mlpLayers(4, []int{3}, 2)
	if want := [][2]int{{4, 3}, {3, 2}}; !reflect.DeepEqual(layers, want) {
		t.Fatalf("layers = %v, want %v", layers, want)
	}
	if got := mlpEpochFLOPs(layers, 10, 5); got != 1020 {
		t.Errorf("FLOPs = %v, want 1020", got)
	}
}

func TestFingerprintRefusal(t *testing.T) {
	a := hostFingerprint()
	if err := sameHost(a, a); err != nil {
		t.Fatalf("a host differs from itself: %v", err)
	}
	b := a
	b.NumCPU++
	b.CPUModel = "other"
	err := sameHost(a, b)
	if err == nil || !strings.Contains(err.Error(), "num_cpu") || !strings.Contains(err.Error(), "cpu_model") {
		t.Fatalf("differing hosts: err = %v, want both fields named", err)
	}

	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"setup_s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, host fingerprint, setup float64) string {
		path := filepath.Join(dir, name)
		res := &result{Workload: "study-burst", Seconds: 5, Host: host, EndToEnd: metricSet{"setup_s": {setup, "s"}}}
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, same, slower, other := write("old.json", a, 1), write("same.json", a, 1.1), write("slower.json", a, 2), write("other.json", b, 1)
	for _, tc := range []struct {
		cur  string
		want int
	}{{same, 0}, {slower, 1}, {other, 2}} {
		if got := compareMain([]string{"-bench", bench, old, tc.cur}, &bytes.Buffer{}); got != tc.want {
			t.Errorf("compare old %s = exit %d, want %d", filepath.Base(tc.cur), got, tc.want)
		}
	}
}

// TestSmoke runs each workload briefly, traced, through the real daemon,
// and checks that it passes its own checks and reports exactly the
// metrics BENCHMARK.json declares, and that BENCHMARK.json names only
// workloads the benchmark has.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real studies for seconds per workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			wl.makespanStudies, wl.blockStudies = 1, 1
			var out bytes.Buffer
			res, err := run(config{workload: name, seed: 7, seconds: 1, trace: true, workdir: t.TempDir()}, wl, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v\n%s", res.Failures, out.String())
			}
			checkNames(t, "end-to-end", res.EndToEnd, spec.EndToEnd)
			checkNames(t, "per-layer", res.PerLayer, spec.PerLayer)
		})
	}
}

func checkNames(t *testing.T, kind string, got metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	var exp []string
	for _, m := range want {
		exp = append(exp, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(exp)
	if keys := sortedKeys(got); !reflect.DeepEqual(keys, exp) {
		t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, keys, exp)
	}
}

func TestStealShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	m := &stealMeter{samples: []stealSample{
		{at(0), 0, 0}, {at(1), 0, 200}, {at(2), 50, 400}, {at(3), 50, 600},
	}}
	for _, tc := range []struct {
		from, to time.Time
		want     float64
	}{
		{at(0), at(1), 0},
		{at(1), at(2), 0.25},
		// Widened to the samples around the interval: 1s..3s.
		{at(1).Add(time.Millisecond), at(2).Add(time.Millisecond), 50.0 / 400},
		// Past the latest sample: cut there.
		{at(2), at(9), 0},
	} {
		if got := m.share(tc.from, tc.to); got != tc.want {
			t.Errorf("share(%v, %v) = %v, want %v", tc.from.Sub(t0), tc.to.Sub(t0), got, tc.want)
		}
	}
	if got := (&stealMeter{}).share(at(0), at(1)); got != 0 {
		t.Errorf("share without samples = %v, want 0", got)
	}
}

func TestFullBlocks(t *testing.T) {
	var studies []*studyRun
	for i := 0; i < 7; i++ {
		studies = append(studies, &studyRun{plan: plan{index: i}})
	}
	p := &pass{studies: studies, blockStudies: 3}
	got := p.fullBlocks()
	if len(got) != 2 || got[0][0].plan.index != 0 || got[1][2].plan.index != 5 {
		t.Errorf("blocks of 3 over 7 studies = %d blocks, want [0..2] [3..5]", len(got))
	}
	p.blockStudies = 8
	if got := p.fullBlocks(); len(got) != 1 || len(got[0]) != 7 {
		t.Errorf("no complete block: got %d blocks, want all studies as one", len(got))
	}
}

func TestQuietBlocks(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	// Steal per second of the four one-second blocks: 0%, 10%, 0.4%, 5%.
	m := &stealMeter{samples: []stealSample{
		{at(0), 0, 0}, {at(1), 0, 1000}, {at(2), 100, 2000}, {at(3), 104, 3000}, {at(4), 154, 4000},
	}}
	blocks := func() [][]*studyRun {
		var bs [][]*studyRun
		for i := 0; i < 4; i++ {
			bs = append(bs, []*studyRun{{plan: plan{index: i}, sent: at(i), terminal: at(i + 1)}})
		}
		return bs
	}
	indices := func(bs [][]*studyRun) []int {
		var out []int
		for _, b := range bs {
			out = append(out, b[0].plan.index)
		}
		return out
	}
	p := &pass{steal: m}
	// Two of four blocks are quiet: both are kept, in submission order.
	kept, steal := p.quietBlocks(blocks())
	if got := indices(kept); !reflect.DeepEqual(got, []int{0, 2}) || !reflect.DeepEqual(steal, []float64{0, 0.004}) {
		t.Errorf("quiet blocks = %v (steal %v), want [0 2] ([0 0.004])", got, steal)
	}
	// No quiet block of four (2%, 10%, 20%, 5%): the least-stolen
	// quarter stands in.
	m.samples[1].steal, m.samples[2].steal, m.samples[3].steal, m.samples[4].steal = 20, 120, 320, 370
	if got, _ := p.quietBlocks(blocks()); !reflect.DeepEqual(indices(got), []int{0}) {
		t.Errorf("least-stolen quarter = %v, want [0]", indices(got))
	}
}
