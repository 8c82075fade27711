package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// plan is one study a client submits: the spec body hpod receives and
// what the checks expect of its outcome.
type plan struct {
	index int
	name  string
	body  []byte
	// resubmit marks a spec the warm-up already finished: every trial
	// must be answered from the journal's memo index, with no training.
	resubmit bool
	// gridSize, when positive, is the exact number of trials the study
	// must settle.
	gridSize int
	// samples and hidden size the MLP each trial trains (FLOP count).
	samples int
	hidden  int
}

// workload is a seeded generator of closed-loop study submissions.
type workload struct {
	name string
	// clients is the number of closed-loop clients: each submits a study,
	// reads its SSE stream to the terminal event, then submits the next.
	clients int
	// makespanStudies is the workload's fixed amount of work: every pass
	// runs at least its first makespanStudies studies, even when they
	// outlast the pass's duration; makespan_s is the time they take and
	// mean_final_loss averages their trials.
	makespanStudies int
	// blockStudies is the size of the blocks a pass's rates and
	// latencies are taken over (see runPass).
	blockStudies int
	// warmup runs untimed before set-up is measured; its journal is the
	// one set-up boots over.
	warmup []plan
	// plan returns study i of measured pass p (0 untraced, 1 traced).
	plan func(p, i int) plan
}

// workloadNames lists the workloads --workload accepts.
var workloadNames = []string{"grid-train", "hyperband-async", "study-burst"}

// Sizes of the generated studies. They are part of the benchmark's
// definition: changing one changes what every metric means.
const (
	gridSamples = 1000
	gridEpochs  = 3

	hbSamples = 100
	hbHidden  = 8
	hbBudget  = 9

	burstSamples = 100
	burstHidden  = 8
	burstTrials  = 2
	burstWarmup  = 64
)

// newWorkload builds the named workload's generator from seed. The
// daemon sees only the generated specs, never the seed itself.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "grid-train":
		// The paper's experiment: one grid of MLP trainings at one core
		// per trial over -parallel nproc cores, with memoisation off. One
		// client, like one user waiting for one grid search. Study i
		// draws its data and trial seeds from the same derived seed in
		// both passes, so its losses must repeat exactly.
		space := map[string]interface{}{
			"optimizer":     []string{"Adam", "RMSprop"},
			"learning_rate": []float64{0.0001, 0.0003},
			"hidden_units":  []int{32, 64},
			"num_epochs":    []int{gridEpochs},
		}
		mk := func(p, i int) plan {
			return plan{
				index: i, name: planName(name, seed, p, i), gridSize: 8,
				samples: gridSamples, hidden: 64,
				body: specJSON(map[string]interface{}{
					"algo": "grid", "space": space, "seed": mix(seed, 0, i),
					"samples": gridSamples, "cores": 1, "memoize": false,
				}, planName(name, seed, p, i)),
			}
		}
		return &workload{name: name, clients: 1, makespanStudies: 12, blockStudies: 2, warmup: []plan{mk(-1, 0)}, plan: mk}, nil
	case "hyperband-async":
		// Rung-driven Hyperband with async rungs on cheap epochs: report
		// handling, rung gates and extend grants dominate. Study i gets
		// the same seed in both passes, so traced and untraced passes run
		// the same brackets.
		mk := func(p, i int) plan {
			n := planName(name, seed, p, i)
			return plan{
				index: i, name: n, samples: hbSamples, hidden: hbHidden,
				body: specJSON(map[string]interface{}{
					"algo": "hyperband", "scheduler": "hyperband", "rung_mode": "async",
					"pruner_eta": 3, "budget": hbBudget, "seed": mix(seed, 1, i),
					"samples": hbSamples, "hidden": []int{hbHidden}, "memoize": false,
					"space": map[string]interface{}{
						"optimizer":     []string{"Adam", "RMSprop"},
						"learning_rate": map[string]interface{}{"type": "float", "min": 0.001, "max": 0.01, "log": true},
					},
				}, n),
			}
		}
		return &workload{name: name, clients: 1, makespanStudies: 120, blockStudies: 10, warmup: []plan{mk(-1, 0)}, plan: mk}, nil
	case "study-burst":
		// Many tiny studies, alternating fresh random searches (journal
		// writes) with resubmissions of warm-up specs (memo reads only).
		fresh := func(p, i int, n string) plan {
			return plan{
				index: i, name: n, samples: burstSamples, hidden: burstHidden,
				body: specJSON(map[string]interface{}{
					"algo": "random", "budget": burstTrials, "seed": mix(seed, 2+p, i),
					"samples": burstSamples, "hidden": []int{burstHidden},
					"space": map[string]interface{}{
						"num_epochs":    []int{1, 2},
						"learning_rate": map[string]interface{}{"type": "float", "min": 0.001, "max": 0.01, "log": true},
					},
				}, n),
			}
		}
		warm := make([]plan, burstWarmup)
		for i := range warm {
			warm[i] = fresh(-1, i, planName(name, seed, -1, i))
		}
		mk := func(p, i int) plan {
			n := planName(name, seed, p, i)
			if i%2 == 1 {
				w := warm[(i/2)%len(warm)]
				w.index, w.name, w.resubmit = i, n, true
				w.body = renameSpec(w.body, n)
				return w
			}
			return fresh(p, i, n)
		}
		return &workload{name: name, clients: 2, makespanStudies: 1000, blockStudies: 150, warmup: warm, plan: mk}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// planName is a study's unique name; the tracer keys its spans by it.
func planName(workload string, seed uint64, pass, i int) string {
	if pass < 0 {
		return fmt.Sprintf("%s-%d-warm-%d", workload, seed, i)
	}
	return fmt.Sprintf("%s-%d-p%d-%d", workload, seed, pass, i)
}

// specJSON renders a study spec with its name and "start": true.
func specJSON(fields map[string]interface{}, name string) []byte {
	out := map[string]interface{}{"name": name, "start": true}
	for k, v := range fields {
		out[k] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(fmt.Sprintf("hpobench: rendering spec: %v", err))
	}
	return b
}

// renameSpec returns body with its name replaced. The name is not part
// of the memo scope, so a renamed spec still hits every memoised trial.
func renameSpec(body []byte, name string) []byte {
	var m map[string]interface{}
	if err := json.Unmarshal(body, &m); err != nil {
		panic(fmt.Sprintf("hpobench: re-reading spec: %v", err))
	}
	delete(m, "name")
	return specJSON(m, name)
}

// mix derives a non-zero study seed from the workload seed, a stream and
// an index (splitmix64 finaliser), so hpod sees only derived values.
func mix(seed uint64, stream, i int) uint64 {
	z := seed ^ uint64(stream)*0xbf58476d1ce4e5b9 ^ uint64(i+1)*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep seeds within 2^53 so they survive JSON's float64 numbers.
	z &= 1<<53 - 1
	if z == 0 {
		z = 1
	}
	return z
}
