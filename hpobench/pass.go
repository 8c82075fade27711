package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// A pass is measured in blocks of consecutive studies (by submission
// order). Its rates and latencies come from its quiet blocks: those during
// which the hypervisor stole at most quietSteal of the host's CPU time.
// When fewer than a quarter of the blocks are quiet, the least-stolen
// quarter stands in for them, so the metrics always rest on at least a
// quarter of the pass's work and a disturbance confined to some blocks —
// another tenant's burst on a shared host — does not move them.
const quietSteal = 0.005

// pass is one measured closed-loop run of a workload against a daemon.
type pass struct {
	studies       []*studyRun
	before, after promSample
	traced        bool
	steal         *stealMeter
	blockStudies  int
	// workRSSMB is the process's peak resident set when the pass's
	// makespanStudies-th study finished: memory at a fixed amount of work.
	workRSSMB float64
}

// runPass drives w's closed-loop clients against c: each client submits
// its next study only after the previous one's terminal event. The pass
// submits studies for dur, and at least its first makespanStudies; it
// keeps going for up to extend more while fewer than half of its complete
// blocks ran quiet, so that a burst of CPU steal is measured around
// rather than into the result.
func runPass(ctx context.Context, c *client, w *workload, passNo int, dur, extend time.Duration) (*pass, error) {
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p := &pass{before: before, traced: passNo == 1, blockStudies: w.blockStudies,
		steal: startStealMeter(50 * time.Millisecond)}
	defer p.steal.stopMeter()
	deadline := time.Now().Add(dur)
	hardStop := deadline.Add(extend)
	var (
		mu      sync.Mutex
		next    int
		blocks  int
		quiet   int
		byBlock = make(map[int][]*studyRun)
	)
	more := func(i int) bool {
		now := time.Now()
		return i < w.makespanStudies || now.Before(deadline) || (now.Before(hardStop) && 2*quiet < blocks)
	}
	var wg sync.WaitGroup
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				ok := more(i)
				if ok {
					next++
				}
				mu.Unlock()
				if !ok {
					return
				}
				r := c.runStudy(ctx, w.plan(passNo, i))
				mu.Lock()
				p.studies = append(p.studies, r)
				if len(p.studies) == w.makespanStudies {
					p.workRSSMB = peakRSSMB()
				}
				b := i / w.blockStudies
				byBlock[b] = append(byBlock[b], r)
				if len(byBlock[b]) == w.blockStudies {
					blocks++
					if p.steal.share(span(byBlock[b])) <= quietSteal {
						quiet++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(p.studies, func(i, j int) bool { return p.studies[i].plan.index < p.studies[j].plan.index })
	if p.after, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// fullBlocks returns the pass's complete blocks in order, or all its
// studies as one block when none is complete.
func (p *pass) fullBlocks() [][]*studyRun {
	var out [][]*studyRun
	for i := 0; i+p.blockStudies <= len(p.studies); i += p.blockStudies {
		out = append(out, p.studies[i:i+p.blockStudies])
	}
	if len(out) == 0 && len(p.studies) > 0 {
		out = append(out, p.studies)
	}
	return out
}

// quietBlocks returns the blocks of bs the end-to-end metrics are taken
// over, in submission order: the quiet ones, or the least-stolen quarter
// when fewer are quiet. steal is the share of CPU time stolen during each
// kept block.
func (p *pass) quietBlocks(bs [][]*studyRun) (kept [][]*studyRun, steal []float64) {
	shares := make([]float64, len(bs))
	order := make([]int, len(bs))
	quiet := 0
	for i, b := range bs {
		shares[i] = p.steal.share(span(b))
		order[i] = i
		if shares[i] <= quietSteal {
			quiet++
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return shares[order[i]] < shares[order[j]] })
	if quarter := (len(bs) + 3) / 4; quiet < quarter {
		quiet = quarter
	}
	order = order[:quiet]
	sort.Ints(order)
	for _, i := range order {
		kept = append(kept, bs[i])
		steal = append(steal, shares[i])
	}
	return kept, steal
}
