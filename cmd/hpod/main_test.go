package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hpo"
	"repro/internal/server"
)

// testOptions builds a daemon config on an ephemeral port over a temp
// journal.
func testOptions(journal string) options {
	return options{
		addr:       "127.0.0.1:0",
		journal:    journal,
		backend:    "local",
		parallel:   2,
		workers:    0,
		maxStudies: 2,
		drain:      10 * time.Millisecond,
	}
}

// slowObjectives injects a per-trial delay so the test can kill the daemon
// mid-study, and counts actual executions to prove restored trials never
// re-run.
func slowObjectives(delay time.Duration, calls *atomic.Int32) func(server.StudySpec) (hpo.Objective, error) {
	return func(server.StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "slow", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			calls.Add(1)
			time.Sleep(delay)
			acc := 0.3 + 0.05*float64(ctx.Config.Int("num_epochs", 0)%8)
			return hpo.TrialMetrics{BestAcc: acc, FinalAcc: acc, Epochs: 1, ValAccHistory: []float64{acc}}, nil
		}}, nil
	}
}

func httpJSON(t *testing.T, method, url, body string) (int, map[string]interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func trialCount(t *testing.T, base, id string) int {
	t.Helper()
	code, out := httpJSON(t, "GET", base+"/v1/studies/"+id+"/trials", "")
	if code != http.StatusOK {
		t.Fatalf("trials = HTTP %d", code)
	}
	trials, _ := out["trials"].([]interface{})
	return len(trials)
}

// TestDaemonKillRestartResume is the service's end-to-end crash story:
// create a study over HTTP, run it on the local backend, kill the daemon
// mid-study, restart it over the same journal, and observe the finished
// trials restored without re-execution while the remainder completes.
func TestDaemonKillRestartResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "hpod.journal")

	// --- First daemon: start a slow 8-trial study and kill it mid-flight.
	var calls1 atomic.Int32
	d1, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d1.srv.Runner().Objectives = slowObjectives(150*time.Millisecond, &calls1)
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d1.Addr()

	// batch_size 2 bounds each Ask/Tell round so finished rounds journal
	// while later ones still run — the window the kill lands in.
	spec := `{"name":"crashy","algo":"grid","space":{"num_epochs":[1,2,3,4,5,6,7,8]},` +
		`"batch_size":2,"start":true}`
	code, created := httpJSON(t, "POST", base+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)

	deadline := time.Now().Add(20 * time.Second)
	for trialCount(t, base, id) < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	recordedBeforeKill := trialCount(t, base, id)
	if recordedBeforeKill < 2 || recordedBeforeKill >= 8 {
		t.Fatalf("kill window missed: %d trials recorded", recordedBeforeKill)
	}
	// Stop with a tiny drain: the running study is abandoned exactly like a
	// crash — its journal handle closes underneath it.
	if err := d1.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// --- Second daemon over the same journal: the study resumes.
	var calls2 atomic.Int32
	d2, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d2.srv.Runner().Objectives = slowObjectives(10*time.Millisecond, &calls2)
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	base = "http://" + d2.Addr()

	// The interrupted study was re-queued from the journal automatically.
	var study map[string]interface{}
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, s := httpJSON(t, "GET", base+"/v1/studies/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("get resumed study = %d", code)
		}
		if s["state"] == "done" {
			study = s
			break
		}
		if s["state"] == "failed" {
			t.Fatalf("resumed study failed: %v", s["error"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if study == nil {
		t.Fatal("resumed study never finished")
	}

	if got := int(study["trials"].(float64)); got != 8 {
		t.Fatalf("final trials = %d, want 8", got)
	}
	resumed := int(study["resumed"].(float64))
	if resumed < recordedBeforeKill {
		t.Fatalf("resumed = %d, want >= %d restored from the journal", resumed, recordedBeforeKill)
	}
	// The restart executed only the remainder: restored trials never re-ran.
	if executed := int(calls2.Load()); executed != 8-resumed {
		t.Fatalf("second run executed %d trials, want %d (8 minus %d resumed)",
			executed, 8-resumed, resumed)
	}
	if trialCount(t, base, id) != 8 {
		t.Fatalf("journal trial count = %d", trialCount(t, base, id))
	}

	// Healthz reflects the drained service.
	code, health := httpJSON(t, "GET", base+"/healthz", "")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}
}

// haltingObjectives injects an objective whose trials run many short
// epochs and honour Halt, so an HTTP cancel can land mid-trial.
func haltingObjectives(executed *atomic.Int32) func(server.StudySpec) (hpo.Objective, error) {
	return func(server.StudySpec) (hpo.Objective, error) {
		return &hpo.FuncObjective{ObjName: "halting", Fn: func(ctx hpo.ObjectiveContext) (hpo.TrialMetrics, error) {
			var m hpo.TrialMetrics
			for e := 0; e < 100; e++ {
				if ctx.Halt != nil {
					if reason := ctx.Halt(); reason != "" {
						m.Stopped, m.StopReason = true, reason
						return m, nil
					}
				}
				m.Epochs, m.BestAcc, m.FinalAcc = e+1, 0.5, 0.5
				executed.Add(1)
				time.Sleep(5 * time.Millisecond)
			}
			return m, nil
		}}, nil
	}
}

// TestDaemonCancelIsTerminalAcrossRestart: POST /cancel stops a running
// study cleanly (terminal "canceled" in the journal) and a restarted daemon
// does not re-queue it.
func TestDaemonCancelIsTerminalAcrossRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "hpod.journal")

	var executed atomic.Int32
	d1, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d1.srv.Runner().Objectives = haltingObjectives(&executed)
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d1.Addr()

	spec := `{"name":"cancelme","algo":"grid","space":{"num_epochs":[1,2,3,4,5,6]},"start":true}`
	code, created := httpJSON(t, "POST", base+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)

	deadline := time.Now().Add(20 * time.Second)
	for executed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if executed.Load() == 0 {
		t.Fatal("study never started")
	}
	code, view := httpJSON(t, "POST", base+"/v1/studies/"+id+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel = %d %v", code, view)
	}
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		code, s := httpJSON(t, "GET", base+"/v1/studies/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("get = %d", code)
		}
		if s["state"] == "canceled" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d1.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// Restarted daemon over the same journal: the canceled study must stay
	// terminal — no resume, no new executions.
	before := executed.Load()
	d2, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d2.srv.Runner().Objectives = haltingObjectives(&executed)
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	base = "http://" + d2.Addr()

	time.Sleep(150 * time.Millisecond)
	code, s := httpJSON(t, "GET", base+"/v1/studies/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("get after restart = %d", code)
	}
	if s["state"] != "canceled" {
		t.Fatalf("state after restart = %v, want canceled", s["state"])
	}
	if s["job"] != nil {
		t.Fatalf("canceled study has a live job after restart: %v", s["job"])
	}
	if after := executed.Load(); after != before {
		t.Fatalf("restart re-executed a canceled study: %d → %d epochs", before, after)
	}
}

// TestDaemonCompactionSurvivesRestart: finish studies, compact the journal
// over the admin endpoint, kill the daemon, restart over the same journal
// — every acknowledged trial result and final metric must still be served,
// with zero re-executions, and the compacted studies must not re-queue.
func TestDaemonCompactionSurvivesRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "hpod.journal")

	var calls1 atomic.Int32
	d1, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d1.srv.Runner().Objectives = slowObjectives(time.Millisecond, &calls1)
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d1.Addr()

	spec := `{"name":"compactme","algo":"grid","space":{"num_epochs":[1,2,3,4]},"start":true}`
	code, created := httpJSON(t, "POST", base+"/v1/studies", spec)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, created)
	}
	id := created["id"].(string)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, s := httpJSON(t, "GET", base+"/v1/studies/"+id, ""); s["state"] == "done" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wantAccs := trialAccs(t, base, id)
	if len(wantAccs) != 4 {
		t.Fatalf("study did not finish: %d trials", len(wantAccs))
	}

	code, out := httpJSON(t, "POST", base+"/v1/admin/compact", "")
	if code != http.StatusOK {
		t.Fatalf("compact = %d %v", code, out)
	}
	if delta, _ := out["compacted"].(map[string]interface{}); delta == nil || delta["studies_compacted"].(float64) < 1 {
		t.Fatalf("nothing compacted: %v", out)
	}
	if err := d1.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	var calls2 atomic.Int32
	d2, err := newDaemon(testOptions(journal))
	if err != nil {
		t.Fatal(err)
	}
	d2.srv.Runner().Objectives = slowObjectives(time.Millisecond, &calls2)
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	base = "http://" + d2.Addr()

	code, s := httpJSON(t, "GET", base+"/v1/studies/"+id, "")
	if code != http.StatusOK || s["state"] != "done" {
		t.Fatalf("compacted study after restart = %d %v", code, s)
	}
	gotAccs := trialAccs(t, base, id)
	if len(gotAccs) != len(wantAccs) {
		t.Fatalf("trials after compaction+restart = %d, want %d", len(gotAccs), len(wantAccs))
	}
	for k, v := range wantAccs {
		if gotAccs[k] != v {
			t.Fatalf("trial %d final acc drifted: %v → %v", k, v, gotAccs[k])
		}
	}
	if calls2.Load() != 0 {
		t.Fatalf("restart re-executed %d trials of a compacted done study", calls2.Load())
	}
}

// trialAccs maps trial id → final accuracy as served by the API.
func trialAccs(t *testing.T, base, id string) map[int]float64 {
	t.Helper()
	code, out := httpJSON(t, "GET", base+"/v1/studies/"+id+"/trials", "")
	if code != http.StatusOK {
		t.Fatalf("trials = HTTP %d", code)
	}
	accs := make(map[int]float64)
	for _, raw := range out["trials"].([]interface{}) {
		tr := raw.(map[string]interface{})
		accs[int(tr["id"].(float64))] = tr["final_acc"].(float64)
	}
	return accs
}

// TestDaemonValidatesRungModeAtBoot: a mistyped -rung-mode (like -pruner
// and -scheduler) must fail the boot, not every future study.
func TestDaemonValidatesRungModeAtBoot(t *testing.T) {
	o := testOptions(filepath.Join(t.TempDir(), "hpod.journal"))
	o.rungMode = "bogus"
	if _, err := newDaemon(o); err == nil {
		t.Fatal("daemon booted with an unknown -rung-mode")
	}
	o.rungMode = "async"
	o.scheduler = "hyperband"
	d, err := newDaemon(o)
	if err != nil {
		t.Fatalf("async rung-mode default rejected: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if got := d.srv.Runner().DefaultRungMode; got != "async" {
		t.Fatalf("DefaultRungMode = %q, want async", got)
	}
}
