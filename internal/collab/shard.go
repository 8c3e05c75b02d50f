package collab

// Region-sharded phase-2 engine (DESIGN.md §15–16). RunSharded partitions
// the centers into geographic shards with the voronoi task-weighted k-means
// machinery (under ShardAuto the count follows from the center count alone
// — autoShardCount), plays one best-response game per shard concurrently
// over the home-shard workers, and settles the boundary workers with one
// serialized exchange game that continues the finished shard games' states.
// The exchange game runs the ordinary best-response dynamics under the
// game's stop rule, so the final state is a global pure Nash equilibrium
// (VerifyEquilibrium). ShardReport.Cut, called outside the solve, proves
// which workers can interact with which shards (the worker-overlap
// interference graph). When that cut is empty the shard games already end
// at the equilibrium: every center's routes equal the unsharded run's and
// the exchange accepts nothing.

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"imtao/internal/assign"
	"imtao/internal/fanout"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/voronoi"
)

// Shard-engine metrics, aggregated across every sharded run of the process.
var (
	mShardGames = obs.Default.Counter("imtao_shard_games_total",
		"phase-A shard games played (one per shard per sharded run)")
	mShardGameSeconds = obs.Default.Quantile("imtao_shard_game_seconds",
		"wall time of one phase-A shard game, pool-queue wait included; the "+
			"p99/p50 spread is the shard skew straggler view")
	mShardIterSeconds = obs.Default.Quantile("imtao_shard_iter_seconds",
		"wall time of one shard-game iteration across every shard of every "+
			"sharded run — the per-shard counterpart of imtao_collab_iter_seconds")
	mShardSkew = obs.Default.Gauge("imtao_shard_skew",
		"max/mean phase-A shard game wall time of the most recent sharded "+
			"run — 1.0 is perfectly balanced shards")
	mExchangeIters = obs.Default.Counter("imtao_shard_exchange_iterations_total",
		"serialized exchange-round iterations of the boundary reconcile game")
	mExchangeTransfers = obs.Default.Counter("imtao_shard_exchange_transfers_total",
		"workforce dispatches accepted during boundary reconciliation")
	mShardLoadSkew = obs.Default.Gauge("imtao_shard_load_skew",
		"max/mean per-shard task load of the most recent sharded partition — "+
			"the static counterpart of the wall-time imtao_shard_skew gauge; "+
			"1.0 is a perfectly load-balanced partition")
	mShardAutoShards = obs.Default.Gauge("imtao_shard_autotune_shards",
		"shard count picked by the most recent ShardAuto run")
)

// ShardAuto, as ShardConfig.Shards (imtao.WithShards(0) at the public
// surface), asks RunSharded to pick the shard count itself.
const ShardAuto = -1

// autoCentersPerShard is the center count per shard ShardAuto aims at; the
// measured ladders behind it are in DESIGN.md §16.
const autoCentersPerShard = 16

// autoShardCount is ShardAuto's pick for an instance of the given center
// count: 2^round(log2(centers/16)), clamped to [1, 64] — the power of two
// nearest to 16 centers per shard. 50 centers give 4 shards, 250 give 16,
// 500 give 32 and 1,000 or more give 64. The bound 64 is a policy taken
// from the measured ladders, not a limit of the engine: an explicit count
// above it runs as asked. It is a pure function of the center count: no
// partition, interference graph or metric warm-up.
func autoShardCount(centers int) int {
	k := math.Exp2(math.Round(math.Log2(float64(centers) / autoCentersPerShard)))
	return int(min(max(k, 1), 64))
}

// ShardConfig configures a sharded collaboration run.
type ShardConfig struct {
	Config
	// Shards is the requested geographic shard count. PlanShards caps it
	// at the center count, and duplicate center locations or centers
	// without tasks can reduce the effective count further.
	// ≤ 1 runs the unsharded engine, except ShardAuto (-1), which picks
	// about 16 centers per shard (autoShardCount).
	Shards int
	// Seed drives the task-weighted k-means shard partition (PlanShards,
	// voronoi.PartitionWeightedPoints): the same seed always produces the
	// same shard map.
	Seed int64
	// Ledger, when non-nil, receives the sharded run's full decision record:
	// one game log per phase-A shard (in shard order), then the exchange
	// game's log. provenance.Replay applies them in that order. The fallback
	// paths that run the unsharded engine record one global game log. Ledger
	// is the only recording channel: RunSharded ignores Config.Prov, since a
	// single game log cannot hold a run of several games.
	Ledger *provenance.Ledger
}

// ShardReport describes the partition and reconciliation work of one
// sharded run. Its cut fields (ExclusiveWorkers through Colors) analyse the
// partition and steer no game: RunSharded leaves them zero (EmptyCut false)
// on a multi-shard run, and Cut fills them.
type ShardReport struct {
	// ShardsRequested is the caller's ShardConfig.Shards verbatim —
	// ShardAuto (-1) for an auto-picked run, and possibly above the effective
	// count when PlanShards returned fewer shards (see ShardConfig.Shards).
	ShardsRequested int
	// Shards is the effective shard count; ShardOf maps each center to its
	// shard label.
	Shards  int
	ShardOf []int
	// ExclusiveWorkers can only ever interact with one shard, so their
	// phase-A placement is final; BoundaryWorkers are admissible to
	// recipient centers of two or more shards — phase A settles them
	// tentatively within their home shard and the exchange game re-contests
	// them globally. ConflictEdges counts shard pairs sharing at least one
	// boundary worker; EmptyCut reports a boundary-free partition — the
	// case where the shard games provably reproduce the global game.
	ExclusiveWorkers int
	BoundaryWorkers  int
	ConflictEdges    int
	EmptyCut         bool
	// Components and Colors describe the shard conflict graph: its connected
	// components and its greedy chromatic number (cut-density diagnostics;
	// 1 color when the cut is empty).
	// LoadSkew is max/mean per-shard task load of the partition — the
	// static skew the task-weighted partitioner minimizes.
	Components int
	Colors     int
	LoadSkew   float64
	// Auto records the ShardAuto pick. Nil unless the run was requested
	// with Shards: ShardAuto and the sharded engine is eligible for it (at
	// least two centers, a method it supports); a pick of 1 then runs the
	// unsharded game with Auto still set.
	Auto *ShardAutoPick
	// ShardIterations and ShardWall are the per-shard phase-A iteration
	// counts and wall times, in shard order. The final trace of a
	// multi-shard run is the shard traces concatenated in this order
	// followed by the exchange-game steps, so these lengths segment it.
	ShardIterations []int
	ShardWall       []time.Duration
	// ExchangeIterations and ExchangeTransfers are the exchange game's
	// iteration and accepted-dispatch counts. With an empty cut the exchange
	// only confirms the merged state: it accepts nothing.
	ExchangeIterations int
	ExchangeTransfers  int
}

// ShardAutoPick is the record of one ShardAuto decision, attached to
// ShardReport.Auto.
type ShardAutoPick struct {
	// Picked is the shard count autoShardCount chose; running RunSharded
	// with Shards: Picked reproduces the auto run bit for bit.
	Picked int
}

// PlanShards partitions the instance's centers into at most shards
// geographic groups with the seeded task-weighted k-means partitioner
// (voronoi.PartitionWeightedPoints — weights are per-center task counts, so
// shard mass tracks game work rather than center count; a bounded rebalance
// pass then caps the residual load skew) and returns the center→shard
// labels plus the effective shard count. Deterministic per (instance,
// shards, seed).
func PlanShards(in *model.Instance, shards int, seed int64) ([]int, int) {
	pts := make([]geo.Point, len(in.Centers))
	weights := make([]float64, len(in.Centers))
	for i := range in.Centers {
		pts[i] = in.Centers[i].Loc
		weights[i] = float64(len(in.Centers[i].Tasks))
	}
	return voronoi.PartitionWeightedPoints(seed, pts, weights, shards)
}

// shardLoadSkew returns the max/mean per-shard task load of a partition
// (1.0 when perfectly balanced; 0 mean degenerates to 0).
func shardLoadSkew(in *model.Instance, shardOf []int, nShards int) float64 {
	loads := make([]float64, nShards)
	var total float64
	for ci := range in.Centers {
		l := float64(len(in.Centers[ci].Tasks))
		loads[shardOf[ci]] += l
		total += l
	}
	if total == 0 {
		return 0
	}
	return slices.Max(loads) * float64(nShards) / total
}

// Cut fills the report's cut fields (ExclusiveWorkers, BoundaryWorkers,
// ConflictEdges, EmptyCut, Components and Colors) from ShardOf: the
// worker-overlap analysis of the partition of the run that produced the
// report, given the same instance, phase-1 results and deviation scope.
// RunSharded does not call it; the shard bench and the tests do, outside
// the timed solve. A one-shard report keeps the trivial cut RunSharded set.
//
// A worker is poolable when it starts in the phase-1 leftover pool or is
// owned by a recipient center (ρ < 1; its own workers can be freed back into
// the pool by an accepted reassignment). A poolable worker touches shard S
// when its home center is in S or some recipient center of S admits it
// under the admission-slack check — the same physics bound the pruning
// engine uses, evaluated over the static FullReassign scope (or the
// initial, maximal leftover set for LeftoverOnly, whose slack only
// shrinks). Every recipient center checks every poolable worker exactly,
// the shards' scans running concurrently on up to GOMAXPROCS goroutines;
// a worker touching two or more shards is a boundary worker, and two
// shards conflict iff some worker touches both.
func (r *ShardReport) Cut(in *model.Instance, phase1 []assign.Result, scope Scope) {
	if r.Shards <= 1 {
		return
	}
	in.PrepareMetric()

	// touches[s] is the set of workers that touch shard s, seeded with the
	// poolable workers of s's centers.
	touches := make([]workerSet, r.Shards)
	for s := range touches {
		touches[s] = make(workerSet, (len(in.Workers)+63)/64)
	}
	recipients := make([][]model.CenterID, r.Shards)
	var poolable []model.WorkerID
	for ci := range in.Centers {
		s := r.ShardOf[ci]
		for _, w := range phase1[ci].LeftWorkers {
			touches[s].add(w)
		}
		poolable = append(poolable, phase1[ci].LeftWorkers...)
		if metrics.Ratio(countTasks(phase1[ci].Routes), len(in.Centers[ci].Tasks)) < 1 {
			recipients[s] = append(recipients[s], model.CenterID(ci))
			for _, w := range in.Centers[ci].Workers {
				touches[s].add(w)
			}
			poolable = append(poolable, in.Centers[ci].Workers...)
		}
	}
	slices.Sort(poolable)
	poolable = slices.Compact(poolable)
	// One job per shard fills touches[s] alone, from s's recipient centers.
	// A worker already in the set skips the check, since adding it again
	// changes nothing. The checks read the hot slab; build it first.
	in.EnsureHot()
	fanout.Each(r.Shards, func(s int) {
		set := touches[s]
		for _, ci := range recipients[s] {
			c := in.Center(ci)
			tasks := c.Tasks
			if scope == LeftoverOnly {
				tasks = phase1[ci].LeftTasks
			}
			slack := assign.AdmissionSlack(in, c, tasks)
			for _, w := range poolable {
				if !set.has(w) && assign.WorkerAdmissible(in, c, w, slack) {
					set.add(w)
				}
			}
		}
	})

	r.ExclusiveWorkers, r.BoundaryWorkers, r.ConflictEdges = 0, 0, 0
	for i := range touches[0] {
		var once, twice uint64
		for _, set := range touches {
			twice |= once & set[i]
			once |= set[i]
		}
		r.ExclusiveWorkers += bits.OnesCount64(once &^ twice)
		r.BoundaryWorkers += bits.OnesCount64(twice)
	}
	r.EmptyCut = r.BoundaryWorkers == 0
	// adj[s] lists, in shard order, the shards whose sets share a worker
	// with touches[s].
	adj := make([][]int, r.Shards)
	for s := range touches {
		for t := s + 1; t < r.Shards; t++ {
			if touches[s].meets(touches[t]) {
				adj[s] = append(adj[s], t)
				adj[t] = append(adj[t], s)
				r.ConflictEdges++
			}
		}
	}
	_, r.Components = shardComponents(adj)
	_, r.Colors = greedyColorShards(adj)
}

// workerSet is a bitset over worker IDs.
type workerSet []uint64

func (b workerSet) add(w model.WorkerID)      { b[uint(w)/64] |= 1 << (uint(w) % 64) }
func (b workerSet) has(w model.WorkerID) bool { return b[uint(w)/64]&(1<<(uint(w)%64)) != 0 }

func (b workerSet) meets(o workerSet) bool {
	for i, x := range b {
		if x&o[i] != 0 {
			return true
		}
	}
	return false
}

// RunSharded executes the collaboration game through the region-sharded
// engine: concurrent per-shard best-response dynamics over the home-shard
// workers, then a serialized exchange game that continues the shard games'
// states, settles the boundary workers and drives the whole state to a
// global Nash equilibrium. The instance is not mutated. Any shard count
// runs as asked, up to the center count (PlanShards).
//
// Determinism: the outcome is bit-identical at every GOMAXPROCS and
// across repeated runs. When the interference cut (Cut) is empty every
// center's routes equal Run's and the exchange accepts nothing; the
// transfer log is in shard order and the trace is shard segments followed
// by the exchange steps. Otherwise the result is a different, but
// verified, equilibrium of the same game.
//
// Up to GOMAXPROCS shard games play concurrently. Every game, the exchange
// game included, plays its trials on the goroutine that steps it.
// Config.Obs receives one game_iter event per step of the final trace, in
// trace order, once the exchange game ends; the unsharded fallback streams
// them live.
//
// The sharded path engages for MinRatio dynamics with an assigner the game
// prunes for (the built-in Sequential or the exact Optimal — Cut's
// empty-cut certificate rests on the same admission-slack bound).
// Everything else — RandomRecipient, MaxLeftover, budgeted Optimal and
// other custom assigners — falls back to the unsharded Run, reported as
// one shard.
func RunSharded(in *model.Instance, phase1 []assign.Result, cfg ShardConfig) (Result, ShardReport) {
	k := cfg.Shards
	// Every game of the run records through Ledger alone.
	cfg.Prov = nil
	eligible := cfg.Recipient == MinRatio && prunes(cfg.Assigner)
	var auto *ShardAutoPick
	if k == ShardAuto && eligible && len(in.Centers) >= 2 {
		k = autoShardCount(len(in.Centers))
		auto = &ShardAutoPick{Picked: k}
		mShardAutoShards.Set(float64(k))
	}
	var shardOf []int
	nShards := 1
	if k > 1 && len(in.Centers) >= 2 && eligible {
		shardOf, nShards = PlanShards(in, k, cfg.Seed)
	}
	if nShards <= 1 {
		if cfg.Ledger != nil {
			cfg.Config.Prov = cfg.Ledger.NewGameLog(provenance.StageGame, -1)
		}
		res := Run(in, phase1, cfg.Config)
		rep := singleShardReport(in, res)
		rep.ShardsRequested = cfg.Shards
		rep.Auto = auto
		return res, rep
	}

	in.PrepareMetric()
	in.EnsureHot()
	// The games stream no game_iter events; the final trace, renumbered,
	// is emitted once the exchange game ends.
	o := cfg.Obs
	cfg.Obs = nil
	loadSkew := shardLoadSkew(in, shardOf, nShards)
	mShardLoadSkew.Set(loadSkew)

	// One nearest-task table serves every game of the run: shard games
	// build their disjoint centers concurrently, and the exchange game
	// reuses those builds and their travel-time memos.
	if isSequentialAssigner(cfg.Assigner) {
		cfg.orders = assign.NewTaskOrders(in)
	}
	members := make([][]model.CenterID, nShards)
	for ci := range in.Centers {
		s := shardOf[ci]
		members[s] = append(members[s], model.CenterID(ci))
	}

	// Phase A: one restricted game per shard over its member centers. A
	// center's pooled workers are its own, so each shard's pool holds
	// exactly its home-shard workers: the games' mutable state is disjoint
	// and they run concurrently without coordination, each with its own
	// trial base, runner, scratch and arenas (the zero-alloc steady state
	// holds per shard). When the interference cut (Cut) is empty the home
	// partition coincides with the cut's worker sets, which is what makes
	// the shard games provable restrictions of the global game; with a
	// non-empty cut, boundary workers are settled tentatively in their home
	// shard and re-contested by every admissible center in the exchange.
	games := make([]*Game, nShards)
	walls := make([]time.Duration, nShards)
	// Per-shard provenance logs, created upfront in shard order so the
	// ledger's log sequence is deterministic at every GOMAXPROCS.
	provLogs := make([]*provenance.GameLog, nShards)
	if cfg.Ledger != nil {
		for s := range provLogs {
			provLogs[s] = cfg.Ledger.NewGameLog(provenance.StageGame, s)
		}
	}
	fanout.Each(nShards, func(s int) {
		scfg := cfg.Config
		scfg.members = members[s]
		scfg.Prov = provLogs[s]
		t0 := time.Now()
		g := NewGame(in, phase1, scfg)
		for g.Step() {
		}
		walls[s] = time.Since(t0)
		games[s] = g
		mShardGames.Inc()
		mShardGameSeconds.ObserveDuration(walls[s])
		for i := range g.res.Trace {
			mShardIterSeconds.ObserveDuration(g.res.Trace[i].Duration)
		}
	})

	rep := ShardReport{
		ShardsRequested: cfg.Shards,
		Shards:          nShards,
		ShardOf:         shardOf,
		LoadSkew:        loadSkew,
		Auto:            auto,
		ShardIterations: make([]int, nShards),
		ShardWall:       walls,
	}
	var wallMax, wallSum time.Duration
	for s := 0; s < nShards; s++ {
		rep.ShardIterations[s] = games[s].iter
		wallSum += walls[s]
		if walls[s] > wallMax {
			wallMax = walls[s]
		}
	}
	if wallSum > 0 {
		mShardSkew.Set(float64(wallMax) * float64(nShards) / float64(wallSum))
	}

	// Phase B: the exchange game continues the shard games' states with the
	// full worker pool — boundary workers included for the first time — so
	// every center (including those that dropped out of a shard game)
	// re-probes its improving deviations against the global pool. The stop
	// rule ends it at a state with no improving transfer anywhere: a global
	// Nash equilibrium. With an empty cut every shard game already ended at
	// one, since no worker is admissible outside its home shard, so the
	// exchange accepts nothing.
	bcfg := cfg.Config
	if cfg.Ledger != nil {
		bcfg.Prov = cfg.Ledger.NewGameLog(provenance.StageExchange, 0)
	}
	// The final trace is the shard traces in shard order (shard-local ρ/Φ
	// semantics), then the exchange steps (global semantics), renumbered
	// consecutively. The shard games are not used once the exchange game
	// holds their states, so their trial scratch is not live beside it.
	var trace []TraceStep
	for _, g := range games {
		trace = append(trace, g.res.Trace...)
	}
	gB := newExchangeGame(in, bcfg, games)
	priorTransfers := len(gB.transfers)
	for gB.Step() {
	}
	resB := gB.Finish()
	rep.ExchangeIterations = resB.Iterations
	rep.ExchangeTransfers = len(resB.Solution.Transfers) - priorTransfers
	mExchangeIters.Add(int64(rep.ExchangeIterations))
	mExchangeTransfers.Add(int64(rep.ExchangeTransfers))

	trace = append(trace, resB.Trace...)
	for i := range trace {
		trace[i].Iteration = i + 1
		emitGameIter(o, &trace[i])
	}
	resB.Trace = trace
	resB.Iterations = len(trace)
	return resB, rep
}

// shardComponents labels each shard with its connected component in the
// conflict graph given by adjacency lists. Components are numbered by first
// appearance in shard order (shard 0's component is 0), so the labeling is
// canonical and deterministic.
func shardComponents(adj [][]int) ([]int, int) {
	compOf := make([]int, len(adj))
	for s := range compOf {
		compOf[s] = -1
	}
	nComp := 0
	for s := range adj {
		if compOf[s] >= 0 {
			continue
		}
		compOf[s] = nComp
		stack := []int{s}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[t] {
				if compOf[u] < 0 {
					compOf[u] = nComp
					stack = append(stack, u)
				}
			}
		}
		nComp++
	}
	return compOf, nComp
}

// greedyColorShards colors the shard conflict graph greedily in shard
// order, each shard taking the lowest color unused by its already-colored
// neighbors. Returns the per-shard colors and the color count (≤ max degree
// + 1). Deterministic and purely diagnostic: a low count certifies a sparse
// cut in the report.
func greedyColorShards(adj [][]int) ([]int, int) {
	colors := make([]int, len(adj))
	// usedBy[c] == s+1 while coloring shard s: a neighbor already holds c.
	usedBy := make([]int, len(adj))
	nColors := 0
	for s := range adj {
		for _, t := range adj[s] {
			if t < s {
				usedBy[colors[t]] = s + 1
			}
		}
		c := 0
		for usedBy[c] == s+1 {
			c++
		}
		colors[s] = c
		nColors = max(nColors, c+1)
	}
	return colors, nColors
}

// singleShardReport wraps an unsharded result as a one-shard report — the
// fallback path of RunSharded.
func singleShardReport(in *model.Instance, res Result) ShardReport {
	return ShardReport{
		Shards:          1,
		ShardOf:         make([]int, len(in.Centers)),
		EmptyCut:        true,
		Components:      1,
		Colors:          1,
		LoadSkew:        1,
		ShardIterations: []int{res.Iterations},
		ShardWall:       []time.Duration{0},
	}
}
