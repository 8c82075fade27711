package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealMeter samples the host's CPU steal time — time the hypervisor gave
// this machine's virtual CPUs to someone else — so blocks of a pass that
// other tenants slowed down can be told apart. Without /proc/stat, or on
// bare metal, every share reads 0.
type stealMeter struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at           time.Time
	steal, total uint64
}

// startStealMeter samples every interval until stopMeter.
func startStealMeter(interval time.Duration) *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				m.sample()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// stopMeter ends sampling and waits for the sampler to exit.
func (m *stealMeter) stopMeter() {
	close(m.stop)
	<-m.done
}

func (m *stealMeter) sample() {
	steal, total, ok := readCPUStat()
	if !ok {
		return
	}
	m.mu.Lock()
	m.samples = append(m.samples, stealSample{time.Now(), steal, total})
	m.mu.Unlock()
}

// share returns the fraction of CPU time stolen between from and to,
// widened to the nearest samples around the interval (cut at the latest
// sample while sampling goes on).
func (m *stealMeter) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var a, b *stealSample
	for i := range m.samples {
		s := &m.samples[i]
		if !s.at.After(from) || a == nil {
			a = s
		}
		if b == nil && !s.at.Before(to) {
			b = s
		}
	}
	if b == nil && len(m.samples) > 0 {
		// The interval ends after the latest sample: use that one.
		b = &m.samples[len(m.samples)-1]
	}
	if a == nil || b == nil || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readCPUStat reads the aggregate steal and total jiffies from the "cpu"
// line of /proc/stat.
func readCPUStat() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
