package experiments

import (
	"fmt"
	"strings"

	"imtao/internal/core"
	"imtao/internal/stats"
	"imtao/internal/workload"
)

// DefaultsComparison runs every requested method at the Table I default
// parameter setting — the headline comparison quoted in README.md and
// EXPERIMENTS.md.
type DefaultsComparison struct {
	Dataset workload.Dataset
	Seeds   []int64
	Rows    []DefaultsRow
}

// DefaultsRow is one method's aggregate at the default setting.
type DefaultsRow struct {
	Method         core.Method
	Assigned       stats.Summary
	Unfairness     stats.Summary
	CPUSeconds     stats.Summary
	Transfers      stats.Summary
	GameIterations stats.Summary
}

// RunDefaults executes the defaults comparison. optBudget bounds the Opt
// assigner's per-center search in steps; zero runs it exact.
func RunDefaults(d workload.Dataset, methods []core.Method, seeds []int64, optBudget int) (*DefaultsComparison, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	if len(methods) == 0 {
		methods = SeqMethods()
	}
	res := &DefaultsComparison{Dataset: d, Seeds: seeds}
	type agg struct{ a, u, c, tr, it []float64 }
	aggs := make([]agg, len(methods))
	for _, seed := range seeds {
		p := workload.Defaults(d)
		p.Seed = seed
		raw, err := workload.Generate(p)
		if err != nil {
			return nil, err
		}
		in, _, err := core.Partition(raw)
		if err != nil {
			return nil, err
		}
		for mi, m := range methods {
			rep, err := core.Run(in, core.Config{Method: m, Seed: seed, OptBudget: optBudget})
			if err != nil {
				return nil, err
			}
			aggs[mi].a = append(aggs[mi].a, float64(rep.Assigned))
			aggs[mi].u = append(aggs[mi].u, rep.Unfairness)
			aggs[mi].c = append(aggs[mi].c, (rep.Phase1Time + rep.Phase2Time).Seconds())
			aggs[mi].tr = append(aggs[mi].tr, float64(rep.Transfers))
			aggs[mi].it = append(aggs[mi].it, float64(rep.Iterations))
		}
	}
	for mi, m := range methods {
		res.Rows = append(res.Rows, DefaultsRow{
			Method:         m,
			Assigned:       stats.Summarize(aggs[mi].a),
			Unfairness:     stats.Summarize(aggs[mi].u),
			CPUSeconds:     stats.Summarize(aggs[mi].c),
			Transfers:      stats.Summarize(aggs[mi].tr),
			GameIterations: stats.Summarize(aggs[mi].it),
		})
	}
	return res, nil
}

// Table renders the comparison.
func (d *DefaultsComparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Default-setting comparison (%s, Table I defaults, seeds=%v)\n", d.Dataset, d.Seeds)
	fmt.Fprintf(&b, "  %-10s %10s %10s %11s %10s %10s\n",
		"method", "assigned", "U_rho", "cpu (s)", "transfers", "game-iters")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-10s %10.1f %10.3f %11.5f %10.1f %10.1f\n",
			r.Method, r.Assigned.Mean, r.Unfairness.Mean, r.CPUSeconds.Mean,
			r.Transfers.Mean, r.GameIterations.Mean)
	}
	return b.String()
}
