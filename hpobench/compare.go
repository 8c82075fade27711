package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two results written with --out: old, then new.
// It refuses results from different hosts or workloads (exit 2), and
// exits 1 when an end-to-end metric worsened by more than its
// BENCHMARK.json bound.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hpobench compare [-bench BENCHMARK.json] old.json new.json")
		return 2
	}
	var old, cur result
	for i, r := range []*result{&old, &cur} {
		if err := readJSON(fs.Arg(i), r); err != nil {
			fmt.Fprintln(os.Stderr, "hpobench compare:", err)
			return 2
		}
	}
	if err := sameHost(old.Host, cur.Host); err != nil {
		fmt.Fprintln(os.Stderr, "hpobench compare:", err)
		return 2
	}
	if old.Workload != cur.Workload || old.Seconds != cur.Seconds {
		fmt.Fprintf(os.Stderr, "hpobench compare: results measure different things (%s for %ds vs %s for %ds)\n",
			old.Workload, old.Seconds, cur.Workload, cur.Seconds)
		return 2
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "hpobench compare:", err)
		return 2
	}
	worse := 0
	for _, m := range spec.EndToEnd {
		a, okA := old.EndToEnd[m.Name]
		b, okB := cur.EndToEnd[m.Name]
		if !okA || !okB || a.Value == 0 {
			continue
		}
		change := (b.Value - a.Value) / a.Value
		regress := change
		if m.Better == "higher" {
			regress = -change
		}
		verdict := "ok"
		if regress > m.Bound {
			verdict = fmt.Sprintf("WORSE beyond the %.0f%% bound", 100*m.Bound)
			worse++
		}
		fmt.Fprintf(w, "%-22s %14.4f -> %14.4f %s  %+7.2f%%  %s\n", m.Name, a.Value, b.Value, a.Unit, 100*change, verdict)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func readJSON(path string, v interface{}) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
