// Command hpobench is the repository's end-to-end benchmark. It boots an
// in-process hpod the way cmd/hpod does — store.OpenJournal with fsync
// on, server.New, a Real-backend cluster.Local(nproc) runtime factory and
// hpod's default flags — serves it on a loopback listener, and drives one
// seeded workload through the HTTP/SSE API with closed-loop clients.
//
// Usage:
//
//	bash hpobench/run.sh --workload grid-train --seed 1 --seconds 35 --trace 0
//	bash hpobench/run.sh compare old.json new.json
//
// run.sh builds the binary inside .bench_build and runs it; `go run
// ./hpobench ...` works too. Workloads are grid-train, hyperband-async
// and study-burst (hpobench/WORKLOADS.md).
//
// A run warms the daemon up with untimed studies, boots it setupBoots
// times over the resulting journal to time set-up, then lets the clients
// submit studies for --seconds (see runPass for when a pass runs longer).
// With --trace 0 it prints the end-to-end metrics.
// With --trace 1 it splits --seconds between two passes over the same
// studies, untraced and then traced at the daemon's exposed seams, and
// prints the per-layer metrics, the tracing overhead and the
// critical-path residual. Either way it checks the outputs and ends its
// standard output with one JSON line:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// The exit code is 1 when a check fails. --out also writes the result
// with the host fingerprint, and `compare` refuses two results whose
// fingerprints differ.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/store"
)

// setupBoots is how many times a run boots the daemon to time set-up,
// setupGap apart: boot time on a shared host switches between a fast and
// a slow mode every few hundred milliseconds, so boots spread over about a
// second give a median that does not hinge on one such window.
const (
	setupBoots = 41
	setupGap   = 25 * time.Millisecond
)

// quietWait is the most an untraced pass runs past --seconds to find
// blocks the host did not steal from (see runPass). It bounds a run's
// length at about --seconds + 25s.
const quietWait = 20 * time.Second

// runLimit bounds a whole run, so a stuck study fails the run instead of
// hanging it.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

// result is one run's outcome; its JSON form is what --out writes and
// compare reads.
type result struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     bool        `json:"trace"`
	Host      fingerprint `json:"host"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// Metrics is what the last output line reports: EndToEnd with
	// tracing off, PerLayer with tracing on.
	Metrics  metricSet `json:"metrics"`
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	Failures []string  `json:"failures,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg config
	var trace int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's study specs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 35, "seconds the measured pass submits studies for (with --trace 1, split between the two passes)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced pass")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "runs"), "directory for the run's journal (removed afterwards)")
	flag.StringVar(&out, "out", "", "also write the result, with the host fingerprint, to this JSON file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "hpobench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "hpobench: --seconds must be at least 1")
		os.Exit(2)
	}

	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpobench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, wl, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpobench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeResult(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "hpobench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run of wl, printing its human-readable
// report to w. It returns an error only when the run could not be
// carried out.
func run(cfg config, wl *workload, w io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "hpod.journal")
	cores := goruntime.NumCPU()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	host := hostFingerprint()
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "hpobench: workload %s, seed %d, %ds measured, trace %v, %d closed-loop client(s), %d cores\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, wl.clients, cores)
	fmt.Fprintf(w, "host: %s\n", hostJSON)

	// Warm-up: untimed studies that fill the journal set-up boots over
	// (and, for study-burst, the memo index resubmissions read).
	if err := withDaemon(ctx, journal, cores, nil, func(c *client) error {
		for _, p := range wl.warmup {
			if r := c.runStudy(ctx, p); r.err != nil || r.state != store.StateDone {
				return fmt.Errorf("warm-up study %s: state %q: %v", p.name, r.state, r.err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The traced pass starts from the same journal as the untraced one,
	// so the two differ only in tracing.
	tracedJournal := journal + ".traced"
	if cfg.trace {
		if err := copyTree(journal, tracedJournal); err != nil {
			return nil, fmt.Errorf("copying the warm-up journal: %w", err)
		}
	}

	// Set-up: boot to first healthy /healthz, several times; the last
	// boot serves the measured pass.
	var setups, opens []float64
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		time.Sleep(setupGap)
		t0 := time.Now()
		if d, err = bootDaemon(journal, cores, nil); err != nil {
			return nil, err
		}
		c := newClient(d.base)
		err := c.waitHealthy(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, ms(d.openTime))
		c.close()
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		if i < setupBoots-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	c := newClient(d.base)
	// A traced run splits --seconds between its two passes; only a run
	// reporting end-to-end metrics waits out CPU steal.
	passTime, extend := time.Duration(cfg.seconds)*time.Second, time.Duration(0)
	if cfg.trace {
		passTime /= 2
	} else {
		extend = quietWait
	}
	untraced, err := runPass(ctx, c, wl, 0, passTime, extend)
	c.close()
	if err = errors.Join(err, d.stop()); err != nil {
		return nil, err
	}

	res := &result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: host}
	passes := []*pass{untraced}
	var traced *pass
	tr := newTracer()
	if cfg.trace {
		if err := withDaemon(ctx, tracedJournal, cores, tr, func(c *client) error {
			traced, err = runPass(ctx, c, wl, 1, passTime, 0)
			return err
		}); err != nil {
			return nil, err
		}
		passes = append(passes, traced)
	}

	for _, p := range passes {
		failed, failures := checkPass(p)
		res.Attempted += len(p.studies)
		res.Failed += failed
		res.Failures = append(res.Failures, failures...)
	}
	if traced != nil {
		res.Failures = append(res.Failures, checkRepeatable(untraced, traced)...)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if res.Failed == 0 && len(res.Failures) > 0 {
		res.Failed = 1
	}
	res.Correct = len(res.Failures) == 0

	var note string
	res.EndToEnd, note = endToEnd(untraced, wl.makespanStudies, setups)
	fmt.Fprintf(w, "end-to-end, tracing off (%d studies; makespan_s times the first %d; %s):\n",
		len(untraced.studies), wl.makespanStudies, note)
	printMetrics(w, res.EndToEnd)
	fmt.Fprintf(w, "  %-32s %14.4f ratio\n", "ops_failed_ratio", float64(res.Failed)/float64(res.Attempted))
	n := len(studyWalls(untraced))
	printTail(w, "study and first-result latency", n)
	res.Metrics = res.EndToEnd
	if cfg.trace {
		var bd breakdown
		tracedE2E, _ := endToEnd(traced, wl.makespanStudies, setups)
		overhead := 100 * (tracedE2E["study_p50_ms"].Value/res.EndToEnd["study_p50_ms"].Value - 1)
		res.PerLayer, bd = perLayer(traced, tr, opens, cores, overhead)
		fmt.Fprintf(w, "per layer, traced pass (%d studies):\n", len(traced.studies))
		printMetrics(w, res.PerLayer)
		printBreakdown(w, bd)
		res.Metrics = res.PerLayer
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "check failed:", f)
	}
	if res.Correct {
		fmt.Fprintln(w, "checks: all passed")
	}
	return res, nil
}

// withDaemon boots a daemon over journal, waits until it is healthy, runs
// fn against it and stops it.
func withDaemon(ctx context.Context, journal string, cores int, tr *tracer, fn func(*client) error) error {
	d, err := bootDaemon(journal, cores, tr)
	if err != nil {
		return err
	}
	c := newClient(d.base)
	err = c.waitHealthy(ctx)
	if err == nil {
		err = fn(c)
	}
	c.close()
	return errors.Join(err, d.stop())
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

func writeResult(path string, res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
