package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/matching"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/stats"
	"imtao/internal/voronoi"
	"imtao/internal/workload"
)

// The ablation studies of DESIGN.md §6 — design choices the paper fixes
// that we vary to see how much they matter. Each ablation runs at the
// Table I default parameter setting over a seed set and reports assigned
// tasks and unfairness per variant.

// AblationRow is one variant's aggregated outcome.
type AblationRow struct {
	Variant    string
	Assigned   stats.Summary
	Unfairness stats.Summary
	CPUSeconds stats.Summary
}

// AblationResult is one completed ablation.
type AblationResult struct {
	Name    string
	Dataset workload.Dataset
	Seeds   []int64
	Rows    []AblationRow
}

// Table renders the ablation as a text table.
func (r *AblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s (%s, seeds=%v)\n", r.Name, r.Dataset, r.Seeds)
	fmt.Fprintf(&b, "  %-24s %10s %12s %12s\n", "variant", "assigned", "U_rho", "cpu (s)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s %10.1f %12.3f %12.5f\n",
			row.Variant, row.Assigned.Mean, row.Unfairness.Mean, row.CPUSeconds.Mean)
	}
	return b.String()
}

// Ablations lists the available ablation IDs.
func Ablations() []string {
	return []string{"worker-order", "recipient-policy", "assigner", "index", "center-placement", "reward-objective"}
}

// RunAblation executes one ablation by ID at the default setting of the
// given dataset.
func RunAblation(id string, d workload.Dataset, seeds []int64) (*AblationResult, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	switch id {
	case "worker-order":
		return ablateWorkerOrder(d, seeds)
	case "recipient-policy":
		return ablateRecipientPolicy(d, seeds)
	case "assigner":
		return ablateAssigner(d, seeds)
	case "index":
		return ablateIndex(d, seeds)
	case "center-placement":
		return ablateCenterPlacement(d, seeds)
	case "reward-objective":
		return ablateRewardObjective(d, seeds)
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q", id)
}

// prepInstance generates and partitions a default instance.
func prepInstance(d workload.Dataset, seed int64) (*model.Instance, error) {
	p := workload.Defaults(d)
	p.Seed = seed
	raw, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	in, _, err := core.Partition(raw)
	return in, err
}

// phase1With runs the center-independent phase with the given assigner.
func phase1With(in *model.Instance, a collab.Assigner) []assign.Result {
	out := make([]assign.Result, len(in.Centers))
	for ci := range in.Centers {
		c := in.Center(model.CenterID(ci))
		out[ci] = a(in, c, c.Workers, c.Tasks)
	}
	return out
}

type variantRun func(in *model.Instance, seed int64) (assigned int, unfair float64)

func collect(name string, d workload.Dataset, seeds []int64, variants []string, run func(v string) variantRun) (*AblationResult, error) {
	res := &AblationResult{Name: name, Dataset: d, Seeds: seeds}
	for _, v := range variants {
		var as, us, ts []float64
		fn := run(v)
		for _, seed := range seeds {
			in, err := prepInstance(d, seed)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			a, u := fn(in, seed)
			ts = append(ts, time.Since(t0).Seconds())
			as = append(as, float64(a))
			us = append(us, u)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:    v,
			Assigned:   stats.Summarize(as),
			Unfairness: stats.Summarize(us),
			CPUSeconds: stats.Summarize(ts),
		})
	}
	return res, nil
}

// ablateWorkerOrder varies the Algorithm 2 worker ordering (paper:
// marginal-first) in phase 1, with BDC collaboration on top.
func ablateWorkerOrder(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	orders := map[string]assign.WorkerOrder{
		"marginal-first (paper)": assign.MarginalFirst,
		"nearest-first":          assign.NearestFirst,
		"by-id":                  assign.ByID,
		"random":                 assign.RandomOrder,
	}
	return collect("worker ordering in Algorithm 2", d, seeds,
		[]string{"marginal-first (paper)", "nearest-first", "by-id", "random"},
		func(v string) variantRun {
			ord := orders[v]
			return func(in *model.Instance, seed int64) (int, float64) {
				a := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
					opt := assign.Options{Order: ord}
					if ord == assign.RandomOrder {
						opt.Rng = rand.New(rand.NewSource(seed))
					}
					return assign.SequentialOpt(in, c, ws, ts, opt)
				}
				p1 := phase1With(in, a)
				out := collab.Run(in, p1, collab.Config{Assigner: a})
				return out.Solution.AssignedCount(), metrics.SolutionUnfairness(in, out.Solution)
			}
		})
}

// ablateRecipientPolicy varies the recipient-selection rule of Algorithm 3.
func ablateRecipientPolicy(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	policies := map[string]collab.RecipientPolicy{
		"min-ratio (paper)": collab.MinRatio,
		"random (RBDC)":     collab.RandomRecipient,
		"max-leftover":      collab.MaxLeftover,
	}
	return collect("recipient selection in Algorithm 3", d, seeds,
		[]string{"min-ratio (paper)", "random (RBDC)", "max-leftover"},
		func(v string) variantRun {
			pol := policies[v]
			return func(in *model.Instance, seed int64) (int, float64) {
				p1 := phase1With(in, assign.Sequential)
				cfg := collab.Config{Recipient: pol, Assigner: assign.Sequential}
				if pol == collab.RandomRecipient {
					cfg.Rng = rand.New(rand.NewSource(seed))
				}
				out := collab.Run(in, p1, cfg)
				return out.Solution.AssignedCount(), metrics.SolutionUnfairness(in, out.Solution)
			}
		})
}

// ablationOptBudget is the assigner ablation's Opt budget in search steps.
// It stands in for the 50 ms wall-clock budget the ablation used to run
// with: at the Table I defaults (both datasets, seeds 1–3) it binds on 41 of
// 120 phase-1 centers, and a binding call takes 49 ms at the median (43–65
// ms interquartile) on a 2 vCPU Xeon.
const ablationOptBudget = 50000

// ablateAssigner compares phase-1 assigners: the paper's sequential greedy,
// the round-matching (Hungarian) baseline, and the budgeted exact Opt.
func ablateAssigner(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	roundMatching := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		r := matching.RoundMatching(in, c, ws, ts)
		return assign.Result{Routes: r.Routes, LeftWorkers: r.LeftWorkers, LeftTasks: r.LeftTasks}
	}
	budgetedOpt := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		return assign.OptimalOpt(in, c, ws, ts, assign.OptimalOptions{Budget: ablationOptBudget})
	}
	optLabel := fmt.Sprintf("opt (%d-step budget)", ablationOptBudget)
	assigners := map[string]collab.Assigner{
		"sequential (paper)": assign.Sequential,
		"round-matching":     roundMatching,
		optLabel:             budgetedOpt,
	}
	return collect("phase-1 assignment algorithm", d, seeds,
		[]string{"sequential (paper)", "round-matching", optLabel},
		func(v string) variantRun {
			a := assigners[v]
			return func(in *model.Instance, seed int64) (int, float64) {
				p1 := phase1With(in, a)
				out := collab.Run(in, p1, collab.Config{Assigner: a})
				return out.Solution.AssignedCount(), metrics.SolutionUnfairness(in, out.Solution)
			}
		})
}

// ablateCenterPlacement compares where the platform sites its centers:
// uniformly at random (the paper), at the k-means of the task demand, or at
// a Lloyd-relaxed (area-balanced) layout. Tasks and workers stay identical;
// only center locations move before partitioning.
func ablateCenterPlacement(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	place := func(v string, in *model.Instance, seed int64) error {
		switch v {
		case "random (paper)":
			return nil
		case "k-means of demand":
			pts := make([]geo.Point, len(in.Tasks))
			for i, t := range in.Tasks {
				pts[i] = t.Loc
			}
			centers, err := voronoi.KMeansWeighted(rand.New(rand.NewSource(seed)), pts, nil, len(in.Centers), 40)
			if err != nil {
				return err
			}
			for i := range in.Centers {
				in.Centers[i].Loc = centers[i]
			}
			return nil
		case "lloyd (balanced area)":
			sites := make([]geo.Point, len(in.Centers))
			for i, c := range in.Centers {
				sites[i] = c.Loc
			}
			relaxed, err := voronoi.Lloyd(sites, in.Bounds, 30, 1e-3)
			if err != nil {
				return err
			}
			for i := range in.Centers {
				in.Centers[i].Loc = relaxed[i]
			}
			return nil
		}
		return fmt.Errorf("unknown placement %q", v)
	}
	res := &AblationResult{Name: "center placement", Dataset: d, Seeds: seeds}
	for _, v := range []string{"random (paper)", "k-means of demand", "lloyd (balanced area)"} {
		var as, us, ts []float64
		for _, seed := range seeds {
			p := workload.Defaults(d)
			p.Seed = seed
			raw, err := workload.Generate(p)
			if err != nil {
				return nil, err
			}
			if err := place(v, raw, seed); err != nil {
				return nil, err
			}
			in, _, err := core.Partition(raw)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			rep, err := core.Run(in, core.Config{Method: core.Method{Assigner: core.Seq, Collab: core.BDC}})
			if err != nil {
				return nil, err
			}
			ts = append(ts, time.Since(t0).Seconds())
			as = append(as, float64(rep.Assigned))
			us = append(us, rep.Unfairness)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:    v,
			Assigned:   stats.Summarize(as),
			Unfairness: stats.Summarize(us),
			CPUSeconds: stats.Summarize(ts),
		})
	}
	return res, nil
}

// ablateRewardObjective compares the paper's count-greedy Algorithm 2 with
// the reward-per-travel-hour variant on a heterogeneous-reward workload
// (RewardJitter 0.8). "Assigned" stays the paper's metric; the interesting
// column is the unfairness/assigned trade the reward-greedy makes, and the
// per-variant reward totals appear in the test assertions.
func ablateRewardObjective(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	variants := map[string]collab.Assigner{
		"count-greedy (paper)": assign.Sequential,
		"reward-greedy":        assign.SequentialByReward,
	}
	res := &AblationResult{Name: "phase-1 objective under heterogeneous rewards", Dataset: d, Seeds: seeds}
	for _, v := range []string{"count-greedy (paper)", "reward-greedy"} {
		a := variants[v]
		var as, us, ts []float64
		for _, seed := range seeds {
			p := workload.Defaults(d)
			p.Seed = seed
			p.RewardJitter = 0.8
			raw, err := workload.Generate(p)
			if err != nil {
				return nil, err
			}
			in, _, err := core.Partition(raw)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			p1 := phase1With(in, a)
			out := collab.Run(in, p1, collab.Config{Assigner: a})
			ts = append(ts, time.Since(t0).Seconds())
			as = append(as, float64(out.Solution.AssignedCount()))
			us = append(us, metrics.SolutionUnfairness(in, out.Solution))
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:    v,
			Assigned:   stats.Summarize(as),
			Unfairness: stats.Summarize(us),
			CPUSeconds: stats.Summarize(ts),
		})
	}
	return res, nil
}

// ablateIndex compares the nearest-task index backing Algorithm 2.
func ablateIndex(d workload.Dataset, seeds []int64) (*AblationResult, error) {
	return collect("nearest-task index in Algorithm 2", d, seeds,
		[]string{"grid (default)", "linear scan"},
		func(v string) variantRun {
			linear := v == "linear scan"
			return func(in *model.Instance, seed int64) (int, float64) {
				a := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
					return assign.SequentialOpt(in, c, ws, ts, assign.Options{LinearScan: linear})
				}
				p1 := phase1With(in, a)
				out := collab.Run(in, p1, collab.Config{Assigner: a})
				return out.Solution.AssignedCount(), metrics.SolutionUnfairness(in, out.Solution)
			}
		})
}
