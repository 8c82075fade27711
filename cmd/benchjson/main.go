// Command benchjson measures the repo's three load-bearing performance
// numbers and emits them as one machine-readable JSON object:
//
//   - epochs_per_sec: synthetic-MNIST MLP training throughput, the unit of
//     work every study is made of;
//   - journal_appends_per_sec: per-epoch metric append throughput on a
//     NoSync journal (the streaming-report hot path);
//   - boot_replay_ns_op: OpenJournal over a 50-terminal-study journal,
//     compacted and not — the daemon restart cost.
//
// CI runs it per push and archives BENCH_<stamp>.json so regressions are
// diffable across commits; checked-in snapshots under BENCH_*.json give
// the baseline. The measurements use testing.Benchmark, so they self-scale
// to a stable iteration count like `go test -bench` would.
//
// Throughput measures (epochs_per_sec, journal_appends_per_sec) take the
// best of -best runs (default 3): on shared CI boxes the max is far more
// stable than a single sample, because interference only ever slows a run
// down. Every snapshot records the host it was measured on (CPU count,
// GOMAXPROCS, GOARCH, CPU model, and whether the AVX GEMM kernel ran).
// With -baseline pointing at another snapshot, the command exits 1 when
// either throughput regresses more than -max-regress percent, and exits 2
// without comparing when the baseline's host differs or is not recorded:
// numbers from different machines say nothing about the code. CI runs it
// as a same-runner A/B, the merge-base's benchjson against HEAD's.
//
// Usage:
//
//	benchjson [-o BENCH_2026-08-07.json] [-stamp 2026-08-07]
//	          [-best 3] [-baseline BENCH_prev.json] [-max-regress 25]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/hpo"
	"repro/internal/nn"
	"repro/internal/store"
	"repro/internal/tensor"
)

type snapshot struct {
	Stamp                string             `json:"stamp"`
	GoVersion            string             `json:"go_version"`
	Host                 host               `json:"host"`
	EpochsPerSec         float64            `json:"epochs_per_sec"`
	JournalAppendsPerSec float64            `json:"journal_appends_per_sec"`
	BootReplayNsOp       map[string]int64   `json:"boot_replay_ns_op"`
	MatMulGFLOPS         map[string]float64 `json:"matmul_gflops"`
	Conv2D               convStats          `json:"conv2d"`
}

// host identifies the machine and kernel a snapshot was measured with.
// Throughputs are comparable only between equal hosts.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	AVXKernel  bool   `json:"avx_kernel"`
}

func thisHost() host {
	return host{
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GOARCH:     goruntime.GOARCH,
		CPUModel:   cpuModel(),
		AVXKernel:  tensor.AVXKernel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errHostMismatch marks a baseline measured on another host, or on an
// unrecorded one; main exits 2 on it.
var errHostMismatch = errors.New("baseline host differs")

// sameHost returns an error wrapping errHostMismatch that names every field
// on which the baseline's host differs from this snapshot's.
func sameHost(path string, base, cur host) error {
	if base == cur {
		return nil
	}
	if base == (host{}) {
		return fmt.Errorf("%w: %s records no host fingerprint; measure a baseline on this host", errHostMismatch, path)
	}
	var diffs []string
	add := func(field string, x, y interface{}) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	add("num_cpu", base.NumCPU, cur.NumCPU)
	add("gomaxprocs", base.GOMAXPROCS, cur.GOMAXPROCS)
	add("goarch", base.GOARCH, cur.GOARCH)
	add("cpu_model", base.CPUModel, cur.CPUModel)
	add("avx_kernel", base.AVXKernel, cur.AVXKernel)
	return fmt.Errorf("%w: %s was measured elsewhere (%s); refusing to compare", errHostMismatch, path, strings.Join(diffs, "; "))
}

// convStats records the Conv2D hot-path cost: time and steady-state
// allocations per forward and per backward call (batch 32, 8×8×3 input,
// 3×3×8 kernels — the shape BenchmarkConv2D* uses).
type convStats struct {
	ForwardNsOp      int64 `json:"forward_ns_op"`
	ForwardAllocsOp  int64 `json:"forward_allocs_op"`
	BackwardNsOp     int64 `json:"backward_ns_op"`
	BackwardAllocsOp int64 `json:"backward_allocs_op"`
}

func main() {
	var out, stamp, baseline string
	var best int
	var maxRegress float64
	flag.StringVar(&out, "o", "", "write the JSON snapshot here (default stdout)")
	flag.StringVar(&stamp, "stamp", time.Now().UTC().Format("2006-01-02"), "snapshot date stamp")
	flag.IntVar(&best, "best", 3, "take the best of this many runs for throughput measures")
	flag.StringVar(&baseline, "baseline", "", "committed BENCH_*.json to compare against")
	flag.Float64Var(&maxRegress, "max-regress", 25, "fail if a throughput measure regresses more than this percent vs -baseline")
	flag.Parse()
	if best < 1 {
		best = 1
	}

	snap := snapshot{
		Stamp:          stamp,
		GoVersion:      goruntime.Version(),
		Host:           thisHost(),
		BootReplayNsOp: map[string]int64{},
		MatMulGFLOPS:   map[string]float64{},
	}
	var err error
	if snap.EpochsPerSec, err = bestOf(best, benchEpochs); err != nil {
		fatal(err)
	}
	if snap.JournalAppendsPerSec, err = bestOf(best, benchAppends); err != nil {
		fatal(err)
	}
	for _, compact := range []bool{false, true} {
		key := "uncompacted"
		if compact {
			key = "compacted"
		}
		ns, err := benchBootReplay(compact)
		if err != nil {
			fatal(err)
		}
		snap.BootReplayNsOp[key] = ns
	}
	snap.MatMulGFLOPS["serial"], err = bestOf(best, func() (float64, error) { return benchMatMul(1), nil })
	if err != nil {
		fatal(err)
	}
	snap.MatMulGFLOPS["units4"], err = bestOf(best, func() (float64, error) { return benchMatMul(4), nil })
	if err != nil {
		fatal(err)
	}
	snap.Conv2D = benchConv2D()

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchjson: wrote %s\n", out)
	}

	if baseline != "" {
		if err := compareBaseline(baseline, snap, maxRegress); err != nil {
			if errors.Is(err, errHostMismatch) {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(2)
			}
			fatal(err)
		}
	}
}

// bestOf runs fn n times and returns the highest value. Throughputs on a
// shared box are only ever depressed by interference, so the max across a
// few runs estimates the machine's true capability far more stably than any
// single sample.
func bestOf(n int, fn func() (float64, error)) (float64, error) {
	bestVal := 0.0
	for i := 0; i < n; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		if v > bestVal {
			bestVal = v
		}
	}
	return bestVal, nil
}

// compareBaseline fails (returns an error) when the baseline snapshot was
// measured on a different host than snap (errHostMismatch), or when a
// throughput measure in snap falls more than maxRegress percent below it. Only
// throughputs gate: the ns/op measures are informational because testing
// .Benchmark's auto-scaling makes single-digit-iteration numbers too noisy
// to gate on a shared box.
func compareBaseline(path string, snap snapshot, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if err := sameHost(path, base.Host, snap.Host); err != nil {
		return err
	}
	check := func(name string, baseV, newV float64) error {
		if baseV <= 0 {
			return nil // measure absent from older snapshots
		}
		drop := (baseV - newV) / baseV * 100
		fmt.Printf("benchjson: %s baseline=%.3f new=%.3f (%+.1f%%)\n", name, baseV, newV, -drop)
		if drop > maxRegress {
			return fmt.Errorf("%s regressed %.1f%% (limit %.0f%%): %.3f -> %.3f",
				name, drop, maxRegress, baseV, newV)
		}
		return nil
	}
	if err := check("epochs_per_sec", base.EpochsPerSec, snap.EpochsPerSec); err != nil {
		return err
	}
	return check("journal_appends_per_sec", base.JournalAppendsPerSec, snap.JournalAppendsPerSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// benchEpochs measures training epochs per second: a small MLP over
// synthetic MNIST, the same objective the studies run.
func benchEpochs() (float64, error) {
	ds, err := datasets.ByName("mnist", 256, 1)
	if err != nil {
		return 0, err
	}
	obj := &hpo.MLObjective{Dataset: ds}
	const epochs = 5
	cfg := hpo.Config{
		"optimizer": "Adam", "num_epochs": epochs,
		"batch_size": 32, "learning_rate": 0.001,
	}
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := obj.Run(hpo.ObjectiveContext{Config: cfg, Parallelism: 1, Seed: 1})
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			if m.Epochs != epochs {
				runErr = fmt.Errorf("trained %d epochs, want %d", m.Epochs, epochs)
				b.Fatal(runErr)
			}
		}
	})
	if runErr != nil {
		return 0, runErr
	}
	return float64(res.N*epochs) / res.T.Seconds(), nil
}

// benchAppends measures AppendMetric throughput on a NoSync journal — the
// per-epoch streaming-report hot path.
func benchAppends() (float64, error) {
	dir, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		j, err := store.OpenJournal(filepath.Join(dir, fmt.Sprintf("j%d", b.N)), store.JournalOptions{NoSync: true})
		if err != nil {
			runErr = err
			b.Fatal(err)
		}
		if err := j.CreateStudy(store.StudyMeta{ID: "bench"}); err != nil {
			runErr = err
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := j.AppendMetric("bench", 0, i, 0.5); err != nil {
				runErr = err
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := j.Close(); err != nil {
			runErr = err
			b.Fatal(err)
		}
	})
	if runErr != nil {
		return 0, runErr
	}
	return float64(res.N) / res.T.Seconds(), nil
}

// benchBootReplay measures OpenJournal over a 50-terminal-study journal
// with 100 per-epoch metrics per trial — mirroring BenchmarkBootReplay's
// mid-size case so the JSON snapshot and the Go benchmark stay comparable.
func benchBootReplay(compact bool) (int64, error) {
	dir, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "j")
	j, err := store.OpenJournal(path, store.JournalOptions{NoSync: true})
	if err != nil {
		return 0, err
	}
	const studies, trialsPer, metricsPer = 50, 4, 100
	for s := 0; s < studies; s++ {
		id := fmt.Sprintf("done-%03d", s)
		if err := j.CreateStudy(store.StudyMeta{ID: id}); err != nil {
			return 0, err
		}
		for tr := 0; tr < trialsPer; tr++ {
			for e := 0; e < metricsPer; e++ {
				if err := j.AppendMetric(id, tr, e, 0.5); err != nil {
					return 0, err
				}
			}
			trial := store.Trial{
				ID:     tr,
				Config: map[string]interface{}{"num_epochs": metricsPer},
				Epochs: metricsPer, FinalAcc: 0.5, BestAcc: 0.5,
			}
			if err := j.AppendTrials(id, []store.Trial{trial}); err != nil {
				return 0, err
			}
		}
		if err := j.SetStudyState(id, store.StateDone, "", &store.Summary{Trials: trialsPer}); err != nil {
			return 0, err
		}
	}
	if compact {
		if _, err := j.Compact(); err != nil {
			return 0, err
		}
	}
	if err := j.Close(); err != nil {
		return 0, err
	}

	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j, err := store.OpenJournal(path, store.JournalOptions{NoSync: true})
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			if n := len(j.ListStudies()); n != studies {
				runErr = fmt.Errorf("replayed %d studies, want %d", n, studies)
				b.Fatal(runErr)
			}
			if err := j.Close(); err != nil {
				runErr = err
				b.Fatal(err)
			}
		}
	})
	if runErr != nil {
		return 0, runErr
	}
	return res.NsPerOp(), nil
}

// benchMatMul measures the blocked GEMM kernel in GFLOP/s on a 128³ product
// (2·n³ floating-point operations per multiply).
func benchMatMul(units int) float64 {
	r := tensor.NewRNG(1)
	const size = 128
	a := tensor.Randn(r, size, size)
	bm := tensor.Randn(r, size, size)
	dst := tensor.New(size, size)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dst, a, bm, units)
		}
	})
	flops := 2 * float64(size) * float64(size) * float64(size)
	return flops * float64(res.N) / res.T.Seconds() / 1e9
}

// benchConv2D measures the Conv2D forward and backward hot paths: ns/op and
// steady-state allocs/op (scratch is warmed before timing, so allocs/op
// reports what a mid-training step pays).
func benchConv2D() convStats {
	r := tensor.NewRNG(1)
	c := nn.NewConv2D(r, 8, 8, 3, 3, 3, 8)
	x := tensor.Randn(r, 32, 8*8*3)
	out := c.Forward(x, true)
	grad := tensor.Randn(r, out.Dim(0), out.Dim(1))
	c.Backward(grad)

	fwd := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Forward(x, true)
		}
	})
	bwd := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Backward(grad)
		}
	})
	return convStats{
		ForwardNsOp:      fwd.NsPerOp(),
		ForwardAllocsOp:  fwd.AllocsPerOp(),
		BackwardNsOp:     bwd.NsPerOp(),
		BackwardAllocsOp: bwd.AllocsPerOp(),
	}
}
