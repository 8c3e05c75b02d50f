package core

import (
	"math"
	"testing"

	"imtao/internal/model"
	"imtao/internal/workload"
)

// Golden regression values: the full pipeline is deterministic, so the
// exact outcomes at the Table I default setting are pinned here. If an
// intentional algorithm change shifts these numbers, update the table and
// the derived figures in EXPERIMENTS.md together. The Opt rows run at a
// 5000-step budget, which binds at these defaults (exact Opt assigns at
// least Seq's count): a budget counts search steps, so a budgeted run is
// pinned as exactly as an exact one.
func TestGoldenDefaultsSeed1(t *testing.T) {
	golden := []struct {
		dataset  workload.Dataset
		method   Method
		budget   int
		assigned int
		unfair   float64
	}{
		{workload.SYN, Method{Seq, WoC}, 0, 340, 0.342},
		{workload.SYN, Method{Seq, BDC}, 0, 377, 0.077},
		{workload.SYN, Method{Opt, WoC}, 5000, 175, 0.326},
		{workload.SYN, Method{Opt, BDC}, 5000, 184, 0.306},
		{workload.GM, Method{Seq, WoC}, 0, 334, 0.339},
		{workload.GM, Method{Seq, BDC}, 0, 357, 0.148},
		{workload.GM, Method{Opt, WoC}, 5000, 169, 0.389},
		{workload.GM, Method{Opt, BDC}, 5000, 174, 0.353},
	}
	cache := map[workload.Dataset]*model.Instance{}
	for _, g := range golden {
		in, ok := cache[g.dataset]
		if !ok {
			p := workload.Defaults(g.dataset)
			p.Seed = 1
			raw, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			in, _, err = Partition(raw)
			if err != nil {
				t.Fatal(err)
			}
			cache[g.dataset] = in
		}
		rep, err := Run(in, Config{Method: g.method, Seed: 1, OptBudget: g.budget})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Assigned != g.assigned {
			t.Errorf("%v %v: assigned %d, golden %d", g.dataset, g.method, rep.Assigned, g.assigned)
		}
		if math.Abs(rep.Unfairness-g.unfair) > 5e-4 {
			t.Errorf("%v %v: unfairness %.4f, golden %.3f", g.dataset, g.method, rep.Unfairness, g.unfair)
		}
	}
}
