package collab

// ShardAuto probe (DESIGN.md §16). The caller historically guessed the
// shard count; autotuneShards picks it from the instance's interference
// profile instead. For each candidate count on a small ladder it plans the
// (task-weighted) partition, builds the worker-overlap interference graph —
// the exact structures the real run uses — and scores a modeled critical
// path: a superlinear per-shard game cost spread over the configured
// parallelism for phase A, plus a serialized boundary-reconcile cost
// β·B·k for phase B. The pick is the ladder's cost argmin, ties to the
// smaller count.
//
// The model is deliberately a pure function of (instance, phase 1, seed,
// ShardParallelism): when ShardParallelism is 0 (GOMAXPROCS at run time)
// the model uses a fixed reference parallelism instead of the machine's
// core count, so the same instance picks the same count on a laptop, a CI
// runner and a 64-core box — the committed benchmark baselines stay
// machine-independent and perfgate can hold the pick to exact equality.

import (
	"math"

	"imtao/internal/assign"
	"imtao/internal/model"
)

// ShardAuto, as ShardConfig.Shards (imtao.WithShards(0) at the public
// surface), asks RunSharded to pick the shard count itself.
const ShardAuto = -1

// Autotune cost-model constants.
const (
	// autotuneAlpha is the superlinearity of game cost in pool size:
	// wall ∝ load^α. Fitted to the committed BENCH_shard.json scaling —
	// the 100k uncapped game's phase-2 wall across 1/2/4/8 shards gives
	// α ≈ 1.33–1.41 (total work N^α·k^(1-α) against the measured
	// 13.7/10.3/8.7/5.9 s ladder).
	autotuneAlpha = 1.4
	// autotuneRefParallelism is the modeled worker count when the caller
	// left ShardParallelism at 0 (GOMAXPROCS): a fixed reference keeps the
	// pick machine-independent (see the package comment).
	autotuneRefParallelism = 8
	// autotuneExchangeWeight scales the exchange term β·B·k: B boundary
	// workers re-contested by an exchange whose step count grows roughly
	// linearly with the shard count k (each extra shard fragments the
	// boundary routes further and adds another round of re-contesting),
	// and the exchange is one serial game. Charging the full serialized
	// cost — no per-component discount — is what stops the model
	// from over-sharding; the measured 10k/100k ladders admit any β in
	// [0.26, 0.48], and 0.36 sits mid-range.
	autotuneExchangeWeight = 0.36
)

// ShardProbe is one candidate shard count's probe: the partition and
// interference profile the real run would see, and its modeled cost.
type ShardProbe struct {
	// Shards is the candidate count; EffectiveShards what the partitioner
	// produced for it (duplicate center locations can collapse clusters).
	Shards          int
	EffectiveShards int
	// Interference profile at this count (see ShardReport).
	BoundaryWorkers int
	ConflictEdges   int
	Components      int
	Colors          int
	LoadSkew        float64
	// Cost is the modeled critical path in load^α units — comparable across
	// the ladder, not a wall-clock prediction.
	Cost float64
}

// ShardAutotune is the record of one ShardAuto decision, attached to
// ShardReport.Auto.
type ShardAutotune struct {
	// Parallelism is the modeled worker count: ShardParallelism when the
	// caller set it, the fixed reference otherwise.
	Parallelism int
	Ladder      []ShardProbe
	// Picked is the chosen shard count — the ladder's Cost argmin.
	Picked int
}

// autotuneLadder is the candidate shard-count ladder, clipped per instance
// to the 64-shard mask width and the center count.
var autotuneLadder = [...]int{1, 2, 4, 8, 16, 32, 64}

// autotuneShards probes the ladder and returns the decision record. The
// caller guarantees eligibility and ≥ 2 centers.
func autotuneShards(in *model.Instance, phase1 []assign.Result, cfg ShardConfig) *ShardAutotune {
	p := cfg.ShardParallelism
	if p <= 0 {
		p = autotuneRefParallelism
	}
	at := &ShardAutotune{Parallelism: p}

	var totalLoad float64
	for ci := range in.Centers {
		totalLoad += float64(len(in.Centers[ci].Tasks))
	}

	best := -1
	for _, k := range autotuneLadder {
		if k > 64 || (k > len(in.Centers) && k > 1) {
			break
		}
		pr := probeShardCount(in, phase1, cfg, k, p, totalLoad)
		at.Ladder = append(at.Ladder, pr)
		if best < 0 || pr.Cost < at.Ladder[best].Cost {
			best = len(at.Ladder) - 1
		}
	}
	at.Picked = at.Ladder[best].Shards
	return at
}

// probeShardCount plans candidate count k and scores the modeled critical
// path at parallelism p.
func probeShardCount(in *model.Instance, phase1 []assign.Result, cfg ShardConfig,
	k, p int, totalLoad float64) ShardProbe {

	pr := ShardProbe{Shards: k, EffectiveShards: 1,
		Components: 1, Colors: 1, LoadSkew: 1}
	if k <= 1 {
		pr.Cost = math.Pow(totalLoad, autotuneAlpha)
		return pr
	}
	shardOf, nShards := PlanShards(in, k, cfg.Seed)
	pr.EffectiveShards = nShards
	if nShards <= 1 {
		// Collapsed partition: this candidate IS the unsharded game.
		pr.Cost = math.Pow(totalLoad, autotuneAlpha)
		return pr
	}
	inf := shardInterference(in, phase1, shardOf, cfg.Scope)
	loads, skew := shardTaskLoads(in, shardOf, nShards)
	_, nComp := shardComponents(&inf.adj, nShards)
	_, nColors := greedyColorShards(&inf.adj, nShards)
	pr.BoundaryWorkers = inf.boundary
	pr.ConflictEdges = inf.conflicts
	pr.Components = nComp
	pr.Colors = nColors
	pr.LoadSkew = skew

	// Phase A: per-shard game cost load^α, spread over p goroutines; the
	// critical path is at least the heaviest shard and at least the mean
	// lane (the LPT bound).
	var sumW, maxW float64
	for _, l := range loads {
		w := math.Pow(l, autotuneAlpha)
		sumW += w
		if w > maxW {
			maxW = w
		}
	}
	phaseA := sumW / float64(p)
	if maxW > phaseA {
		phaseA = maxW
	}

	// Phase B: the measured sweeps show the exchange does NOT parallelize
	// away — its step count grows roughly linearly with the shard count
	// (each extra shard fragments boundary routes into one more round of
	// re-contesting), every step rescans the boundary pool, and the
	// exchange is one serial game. So the model charges the full serialized
	// cost β·B·k with no per-component discount; that pessimism is exactly
	// what keeps the argmin off the over-sharded end of the ladder.
	exch := autotuneExchangeWeight * float64(inf.boundary) * float64(nShards)

	pr.Cost = phaseA + exch
	return pr
}
