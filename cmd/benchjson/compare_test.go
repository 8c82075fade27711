package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselinePassesWithinLimit(t *testing.T) {
	base := writeBaseline(t, `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000}`)
	snap := snapshot{EpochsPerSec: 80, JournalAppendsPerSec: 990}
	if err := compareBaseline(base, snap, 25); err != nil {
		t.Fatalf("20%% drop within a 25%% limit must pass: %v", err)
	}
}

func TestCompareBaselineFailsOnEpochRegression(t *testing.T) {
	base := writeBaseline(t, `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000}`)
	snap := snapshot{EpochsPerSec: 70, JournalAppendsPerSec: 1000}
	if err := compareBaseline(base, snap, 25); err == nil {
		t.Fatal("30% epochs_per_sec drop must fail the 25% gate")
	}
}

func TestCompareBaselineFailsOnAppendRegression(t *testing.T) {
	base := writeBaseline(t, `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000}`)
	snap := snapshot{EpochsPerSec: 100, JournalAppendsPerSec: 500}
	if err := compareBaseline(base, snap, 25); err == nil {
		t.Fatal("50% append-throughput drop must fail the 25% gate")
	}
}

func TestCompareBaselineSkipsAbsentMeasures(t *testing.T) {
	// Older snapshots may predate a measure; zero/absent baselines don't gate.
	base := writeBaseline(t, `{"epochs_per_sec": 0}`)
	snap := snapshot{EpochsPerSec: 50, JournalAppendsPerSec: 10}
	if err := compareBaseline(base, snap, 25); err != nil {
		t.Fatalf("absent baseline measures must not gate: %v", err)
	}
}

func TestCompareBaselineBadFile(t *testing.T) {
	if err := compareBaseline(filepath.Join(t.TempDir(), "missing.json"), snapshot{}, 25); err == nil {
		t.Fatal("missing baseline file must error")
	}
	base := writeBaseline(t, `not json`)
	if err := compareBaseline(base, snapshot{}, 25); err == nil {
		t.Fatal("unparseable baseline must error")
	}
}

func TestCompareBaselineRefusesOtherHost(t *testing.T) {
	cur := host{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64", CPUModel: "Xeon", AVXKernel: true}
	for name, body := range map[string]string{
		"no fingerprint": `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000}`,
		"other cpus":     `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000, "host": {"num_cpu": 4, "gomaxprocs": 4, "goarch": "amd64", "cpu_model": "Xeon", "avx_kernel": true}}`,
		"go kernel":      `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000, "host": {"num_cpu": 2, "gomaxprocs": 2, "goarch": "amd64", "cpu_model": "Xeon", "avx_kernel": false}}`,
	} {
		// A faster snapshot still must not pass against a foreign baseline.
		err := compareBaseline(writeBaseline(t, body), snapshot{Host: cur, EpochsPerSec: 500, JournalAppendsPerSec: 5000}, 25)
		if !errors.Is(err, errHostMismatch) {
			t.Fatalf("%s: err = %v, want errHostMismatch", name, err)
		}
	}
	same := `{"epochs_per_sec": 100, "journal_appends_per_sec": 1000, "host": {"num_cpu": 2, "gomaxprocs": 2, "goarch": "amd64", "cpu_model": "Xeon", "avx_kernel": true}}`
	if err := compareBaseline(writeBaseline(t, same), snapshot{Host: cur, EpochsPerSec: 90, JournalAppendsPerSec: 1000}, 25); err != nil {
		t.Fatalf("same host within the limit must pass: %v", err)
	}
}

func TestBestOfReturnsMax(t *testing.T) {
	vals := []float64{3, 9, 5}
	i := 0
	got, err := bestOf(3, func() (float64, error) { v := vals[i]; i++; return v, nil })
	if err != nil || got != 9 {
		t.Fatalf("bestOf = %v, %v; want 9, nil", got, err)
	}
}
