// Package repro's root bench suite regenerates every table and figure of
// the paper's evaluation, one benchmark per artifact. Run:
//
//	go test -bench=. -benchmem
//
// Custom metrics attach the headline number of each artifact (makespans in
// minutes, accuracies, speedups) to the benchmark output.
package repro

import (
	"testing"

	"repro/internal/paperrepro"
)

func BenchmarkFigure3TaskGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Tasks), "graph-tasks")
		b.ReportMetric(float64(r.Edges), "graph-edges")
	}
}

func BenchmarkFigure4SingleTaskAffinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TaskDuration.Minutes(), "task-min")
		b.ReportMetric(float64(r.BusyCores), "busy-cores")
	}
}

func BenchmarkFigure5SingleNodeGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Makespan.Minutes(), "makespan-min")
		b.ReportMetric(float64(r.StartedAtZero), "immediate-starts")
	}
}

func BenchmarkFigure6MultiNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MakespanFull.Minutes(), "28node-min")
		b.ReportMetric(r.MakespanHalf.Minutes(), "14node-min")
		b.ReportMetric(r.Ratio, "half/full")
	}
}

func BenchmarkFigure7MNISTAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BestAcc, "best-acc")
		b.ReportMetric(r.Above90Pct, "frac>90%")
	}
}

func BenchmarkFigure8CIFARAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BestAcc, "best-acc")
		b.ReportMetric(r.Above90Pct, "frac>90%")
	}
}

func BenchmarkFigure9TimeVsCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		// Headline points: 1-node best, its 1-core baseline, GPU extremes.
		min1 := r.OneNode.Y[0]
		for _, v := range r.OneNode.Y {
			if v < min1 {
				min1 = v
			}
		}
		b.ReportMetric(r.OneNode.Y[0], "1node-1core-min")
		b.ReportMetric(min1, "1node-best-min")
		b.ReportMetric(r.GPUNode.Y[0], "gpu-1core-min")
		b.ReportMetric(r.GPUNode.Y[len(r.GPUNode.Y)-1], "gpu-max-cores-min")
	}
}

func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.Scalability()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup[len(r.Speedup)-1], "speedup@27nodes")
		b.ReportMetric(r.Makespan[0].Minutes(), "1node-min")
		b.ReportMetric(r.Makespan[len(r.Makespan)-1].Minutes(), "27node-min")
	}
}

func BenchmarkGPUMachineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.GPUComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Makespans[0].Minutes(), "mn4-min")
		b.ReportMetric(r.Makespans[1].Minutes(), "minotauro-min")
		b.ReportMetric(r.Makespans[2].Minutes(), "power9-min")
	}
}

func BenchmarkAlgorithmComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.AlgorithmComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GridBest, "grid-best")
		b.ReportMetric(r.RandomBest, "random-best")
		b.ReportMetric(r.RecoveredFrac, "recovered-frac")
	}
}

func BenchmarkSchedulerAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.AblationScheduler()
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range r.Policies {
			b.ReportMetric(r.Makespans[j].Minutes(), p+"-min")
		}
	}
}

func BenchmarkEarlyStoppingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.AblationEarlyStopping()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.EpochsWithout), "epochs-baseline")
		b.ReportMetric(float64(r.EpochsWith), "epochs-earlystop")
	}
}

func BenchmarkTracingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.AblationTracing()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverheadPct, "overhead-%")
		b.ReportMetric(float64(r.RecordsWritten), "records")
	}
}

func BenchmarkFaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paperrepro.AblationFaultTolerance()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PenaltyPct, "penalty-%")
		b.ReportMetric(float64(r.Retries), "retries")
	}
}
