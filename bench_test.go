// Benchmarks regenerating every table and figure of the paper's evaluation
// section. Each BenchmarkFigN corresponds to paper Fig. N; sub-benchmarks
// name the swept parameter value and the method, so
//
//	go test -bench 'Fig3' -benchmem
//
// prints one timing series per figure line. The figure *data* (assigned
// tasks, unfairness) is produced by cmd/imtao-bench; these benchmarks cover
// the CPU-time dimension of each figure and keep every reproduction path
// exercised under `go test -bench`.
package imtao

import (
	"fmt"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/experiments"
)

// prepared caches partitioned instances across benchmark iterations.
var prepared = map[string]*Instance{}

func instanceFor(b *testing.B, d Dataset, mutate func(*Params)) *Instance {
	b.Helper()
	p := DefaultParams(d)
	if mutate != nil {
		mutate(&p)
	}
	key := fmt.Sprintf("%v/%+v", d, p)
	if in, ok := prepared[key]; ok {
		return in
	}
	raw, err := Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		b.Fatal(err)
	}
	prepared[key] = in
	return in
}

func benchMethod(b *testing.B, in *Instance, m Method, opts ...RunOption) {
	b.Helper()
	var assigned int
	for i := 0; i < b.N; i++ {
		rep, err := Run(in, m, opts...)
		if err != nil {
			b.Fatal(err)
		}
		assigned = rep.Assigned
	}
	b.ReportMetric(float64(assigned), "tasks")
}

// benchSweep runs one figure's sweep: for every swept value and every Seq
// method, one sub-benchmark.
func benchSweep(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for _, v := range e.SweepValues {
		in := instanceFor(b, e.Dataset, func(p *Params) { e.Apply(p, v) })
		for _, m := range experiments.SeqMethods() {
			b.Run(fmt.Sprintf("%s=%g/%s", e.SweepName, v, m), func(b *testing.B) {
				benchMethod(b, in, m, WithSeed(1))
			})
		}
	}
}

// BenchmarkTableIDefaults times the proposed Seq-BDC at the Table I default
// parameter setting on both datasets.
func BenchmarkTableIDefaults(b *testing.B) {
	for _, d := range []Dataset{GM, SYN} {
		in := instanceFor(b, d, nil)
		b.Run(d.String(), func(b *testing.B) { benchMethod(b, in, SeqBDC) })
	}
}

// BenchmarkFig3 regenerates the |S| sweep on GM (paper Fig. 3).
func BenchmarkFig3(b *testing.B) { benchSweep(b, "fig3") }

// BenchmarkFig4 regenerates the |S| sweep on SYN (paper Fig. 4).
func BenchmarkFig4(b *testing.B) { benchSweep(b, "fig4") }

// BenchmarkFig5 regenerates the |W| sweep on GM (paper Fig. 5).
func BenchmarkFig5(b *testing.B) { benchSweep(b, "fig5") }

// BenchmarkFig6 regenerates the |W| sweep on SYN (paper Fig. 6).
func BenchmarkFig6(b *testing.B) { benchSweep(b, "fig6") }

// BenchmarkFig7 regenerates the |C| sweep on GM (paper Fig. 7).
func BenchmarkFig7(b *testing.B) { benchSweep(b, "fig7") }

// BenchmarkFig8 regenerates the |C| sweep on SYN (paper Fig. 8).
func BenchmarkFig8(b *testing.B) { benchSweep(b, "fig8") }

// BenchmarkFig9 regenerates the e sweep on GM (paper Fig. 9).
func BenchmarkFig9(b *testing.B) { benchSweep(b, "fig9") }

// BenchmarkFig10 regenerates the e sweep on SYN (paper Fig. 10).
func BenchmarkFig10(b *testing.B) { benchSweep(b, "fig10") }

// BenchmarkFig11Convergence times the full Seq-BDC convergence run at
// |C| = 50 (paper Fig. 11) and reports the number of game iterations.
func BenchmarkFig11Convergence(b *testing.B) {
	for _, d := range []Dataset{GM, SYN} {
		in := instanceFor(b, d, func(p *Params) { p.NumCenters = 50 })
		b.Run(d.String(), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				rep, err := Run(in, SeqBDC)
				if err != nil {
					b.Fatal(err)
				}
				iters = rep.Iterations
			}
			b.ReportMetric(float64(iters), "game-iters")
		})
	}
}

// BenchmarkSeqVsOptCPU reproduces the CPU-magnitude comparison of
// Figs. 3(c)/4(c): the Seq assigner versus the exact Opt baseline on a
// reduced instance (the paper's full-size Opt runs take thousands of
// seconds; the gap, not the absolute number, is the claim).
func BenchmarkSeqVsOptCPU(b *testing.B) {
	in := instanceFor(b, SYN, func(p *Params) {
		p.NumTasks, p.NumWorkers, p.NumCenters = 100, 25, 5
	})
	b.Run("Seq-w/o-C", func(b *testing.B) { benchMethod(b, in, SeqWoC) })
	b.Run("Opt-w/o-C", func(b *testing.B) {
		benchMethod(b, in, OptWoC, WithOptBudget(2000000))
	})
}

// BenchmarkAblationWorkerOrder compares the paper's marginal-first worker
// ordering in Algorithm 2 against the alternatives (DESIGN.md §6).
func BenchmarkAblationWorkerOrder(b *testing.B) {
	in := instanceFor(b, SYN, nil)
	for _, ord := range []struct {
		name string
		kind int
	}{{"marginal-first", 0}, {"nearest-first", 1}, {"by-id", 2}} {
		b.Run(ord.name, func(b *testing.B) {
			var assigned int
			for i := 0; i < b.N; i++ {
				assigned = runWithWorkerOrder(in, ord.kind)
			}
			b.ReportMetric(float64(assigned), "tasks")
		})
	}
}

// BenchmarkPartition times the Voronoi service-area partition (Algorithm 1)
// at the paper's center-count extremes.
func BenchmarkPartition(b *testing.B) {
	for _, nc := range []int{20, 60} {
		p := DefaultParams(SYN)
		p.NumCenters = nc
		raw, err := Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("C=%d", nc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Partition(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runWithWorkerOrder executes phase 1 with a specific worker ordering and
// returns the assigned count (ablation helper).
func runWithWorkerOrder(in *Instance, kind int) int {
	total := 0
	for ci := range in.Centers {
		c := &in.Centers[ci]
		res := assign.SequentialOpt(in, c, c.Workers, c.Tasks,
			assign.Options{Order: assign.WorkerOrder(kind)})
		total += res.AssignedCount()
	}
	return total
}

// BenchmarkIndexChoice compares the nearest-task index backing Algorithm 2
// (DESIGN.md §6): the default cell grid over each center's tasks versus a
// linear scan, at the Table I default scale.
func BenchmarkIndexChoice(b *testing.B) {
	in := instanceFor(b, SYN, nil)
	for _, variant := range []struct {
		name   string
		linear bool
	}{{"grid", false}, {"linear", true}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for ci := range in.Centers {
					c := &in.Centers[ci]
					assign.SequentialOpt(in, c, c.Workers, c.Tasks,
						assign.Options{LinearScan: variant.linear})
				}
			}
		})
	}
}

// BenchmarkCollaborationGame isolates phase 2: the best-response loop on a
// prepared phase-1 state at Table I defaults.
func BenchmarkCollaborationGame(b *testing.B) {
	in := instanceFor(b, SYN, nil)
	phase1 := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := &in.Centers[ci]
		phase1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collab.Run(in, phase1, collab.Config{})
	}
}
