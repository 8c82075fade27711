package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one parsed /metrics scrape: every series value keyed by
// its full name including labels, plus the family names the TYPE lines
// declared (families with no series yet still appear there).
type promSample struct {
	series   map[string]float64
	families map[string]bool
}

// parseProm reads the Prometheus text exposition GET /metrics serves.
func parseProm(r io.Reader) (promSample, error) {
	s := promSample{series: make(map[string]float64), families: make(map[string]bool)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, _, ok := strings.Cut(rest, " "); ok {
				s.families[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so the value is after the last one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return s, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return s, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.series[line[:i]] = v
	}
	return s, sc.Err()
}

// sum totals every series of one metric name across label values:
// sum("hpo_store_appends_total") adds all record types. Histogram parts
// are addressed by their own names (name_sum, name_count).
func (s promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range s.series {
		if k == name || (strings.HasPrefix(k, name+"{")) {
			total += v
		}
	}
	return total
}

// delta is after.sum(name) − before.sum(name): the counter movement over
// one measured pass.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}
