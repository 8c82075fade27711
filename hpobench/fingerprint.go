package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
)

// fingerprint identifies the host a result was measured on. Results are
// only comparable between equal fingerprints: a different CPU count or
// model moves every timing without any code change.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Fsync      bool   `json:"fsync"`
}

// hostFingerprint describes this process's host. The journal always
// fsyncs here (the daemon's default), so Fsync is true.
func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GOARCH:     goruntime.GOARCH,
		CPUModel:   cpuModel(),
		GoVersion:  goruntime.Version(),
		Fsync:      true,
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

// sameHost returns an error naming every field on which a and b differ.
func sameHost(a, b fingerprint) error {
	var diffs []string
	add := func(field string, x, y interface{}) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("go_version", a.GoVersion, b.GoVersion)
	add("fsync", a.Fsync, b.Fsync)
	if len(diffs) > 0 {
		return fmt.Errorf("results come from different hosts (%s): refusing to compare them", strings.Join(diffs, "; "))
	}
	return nil
}
