package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalStripsInternalConfigKeys: sampler-internal ("_"-prefixed)
// config keys — Hyperband's bracket binding "_hb" and promotion ceiling
// "_hb_max" — are scheduler bookkeeping and must never reach disk or the
// read APIs. The fingerprint ignores them by contract, so stripping keeps
// memoization and resume identity intact.
func TestJournalStripsInternalConfigKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, dir)
	if err := j.CreateStudy(StudyMeta{ID: "s"}); err != nil {
		t.Fatal(err)
	}
	tr := Trial{
		ID: 0,
		Config: map[string]interface{}{
			"lr": 0.1, "num_epochs": 3, "_hb": "b2-0", "_hb_max": 9,
		},
		Scope:    "sc",
		FinalAcc: 0.8, BestAcc: 0.8, Epochs: 3,
	}
	publicFP := Fingerprint(map[string]interface{}{"lr": 0.1, "num_epochs": 3})
	if Fingerprint(tr.Config) != publicFP {
		t.Fatalf("fingerprint leaks hidden keys: %q vs %q", Fingerprint(tr.Config), publicFP)
	}
	if err := j.AppendTrials("s", []Trial{tr}); err != nil {
		t.Fatal(err)
	}

	checkClean := func(j *Journal) {
		t.Helper()
		got, err := j.StudyTrials("s")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("StudyTrials = %d trials, want 1", len(got))
		}
		for k := range got[0].Config {
			if strings.HasPrefix(k, "_") {
				t.Fatalf("journaled config leaks internal key %q: %v", k, got[0].Config)
			}
		}
		if got[0].Config["lr"] == nil || got[0].Config["num_epochs"] == nil {
			t.Fatalf("stripping removed public keys: %v", got[0].Config)
		}
		if hit, ok := j.LookupMemo("sc", publicFP); !ok || hit.BestAcc != 0.8 {
			t.Fatalf("memo lookup by public fingerprint = (%+v, %v), want a hit", hit, ok)
		}
	}
	checkClean(j)

	// The bytes on disk are clean too — not just the in-memory index.
	var raw []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(b), "_hb") {
			raw = append(raw, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatalf("journal files contain hidden scheduler keys: %v", raw)
	}

	// Reopen: replay serves the same stripped view.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	checkClean(j2)
}

// TestPromoteReplayOutOfOrder: in async rung mode promotions from
// different brackets (and different trials) interleave in the journal in
// arrival order — not rung order, not epoch order. Replay must preserve
// them all, per study, in append order, without assuming any monotonic
// structure.
func TestPromoteReplayOutOfOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	j := openTestJournal(t, dir)
	for _, id := range []string{"a", "b"} {
		if err := j.CreateStudy(StudyMeta{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// Interleaved across studies and trials, with non-monotone epochs and
	// budgets (trial 2's bracket sits on a lower ladder than trial 0's).
	type p struct {
		study          string
		trial, ep, bud int
	}
	writes := []p{
		{"a", 0, 0, 3},
		{"b", 7, 8, 27},
		{"a", 2, 2, 9},
		{"a", 0, 2, 9},
		{"b", 3, 0, 3},
		{"a", 5, 0, 3},
	}
	for _, w := range writes {
		if err := j.AppendPromote(w.study, w.trial, w.ep, w.bud, "async rung"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal) {
		t.Helper()
		var got []p
		for _, study := range []string{"a", "b"} {
			for _, pr := range j.StudyPromotes(study) {
				got = append(got, p{study, pr.TrialID, pr.Epoch, pr.Budget})
			}
		}
		want := []p{
			{"a", 0, 0, 3}, {"a", 2, 2, 9}, {"a", 0, 2, 9}, {"a", 5, 0, 3},
			{"b", 7, 8, 27}, {"b", 3, 0, 3},
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d promotions, want %d: %+v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("promotion %d = %+v, want %+v (append order per study)", i, got[i], want[i])
			}
		}
	}
	check(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	check(j2)
}

func TestFingerprintSkipsInternalKeys(t *testing.T) {
	a := Fingerprint(map[string]interface{}{"lr": 0.1, "_bracket": 3})
	b := Fingerprint(map[string]interface{}{"lr": 0.1})
	if a != b {
		t.Fatalf("underscore keys must not affect identity: %q vs %q", a, b)
	}
	if a != "lr=0.1" {
		t.Fatalf("fingerprint format changed: %q", a)
	}
}
