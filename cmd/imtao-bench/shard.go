package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/roadnet"
	"imtao/internal/workload"
)

// The -shard sweep is the acceptance benchmark of the region-sharded game
// engine (DESIGN.md §15): per task size it plays the phase-2 game uncapped
// to equilibrium through collab.RunSharded at each requested shard count —
// shard count 1 IS the unsharded engine, the sweep's baseline — and records
// the wall-clock, the engine's work counters, the exchange rounds and the
// speedup over the one-shard run. After the timed solve, ShardReport.Cut
// adds the partition's interference profile (boundary workers, conflict
// edges, components, colors), which the solve itself does not compute.
// Every point is Nash-verified, and whenever the interference cut is empty
// every center's routes must equal the unsharded engine's with no transfer
// accepted by the exchange; either failing is a hard error (nonzero exit).

// shardRecord is the schema of BENCH_shard.json.
type shardRecord struct {
	Benchmark  string            `json:"benchmark"`
	Method     string            `json:"method"`
	Dataset    string            `json:"dataset"`
	Grid       int               `json:"grid"`
	Seed       int64             `json:"seed"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Env        map[string]string `json:"env"`
	Generated  string            `json:"generated"`
	Presets    []shardPreset     `json:"presets"`
}

type shardPreset struct {
	// Name is "<size>-s<shards>", e.g. "100k-s4".
	Name    string `json:"name"`
	Tasks   int    `json:"tasks"`
	Workers int    `json:"workers"`
	Centers int    `json:"centers"`
	// ShardsRequested is the -shard value; Shards the effective count the
	// partitioner produced (1 when the engine fell back to the unsharded
	// game).
	ShardsRequested int `json:"shards_requested"`
	Shards          int `json:"shards"`

	Phase1Ms float64 `json:"phase1_ms"`

	// Outcome of the sharded engine, uncapped to equilibrium. The solution
	// fields are gated equal against the baseline record: the sharded
	// dynamics is deterministic at every shard count.
	Phase2Ms    float64 `json:"phase2_ms"`
	Iterations  int     `json:"iterations"`
	Transfers   int     `json:"transfers"`
	Assigned    int     `json:"assigned"`
	Unfairness  float64 `json:"unfairness"`
	Fingerprint string  `json:"fingerprint"`

	IterP50Ms float64 `json:"iter_p50_ms"`
	IterP99Ms float64 `json:"iter_p99_ms"`

	// Engine work, summed over the returned trace (phase-A shard games,
	// then the exchange): trials evaluated and candidates admission
	// pruning skipped. Trials run on the stepping goroutine, so both are
	// the same at every GOMAXPROCS.
	TrialsEvaluated  int64 `json:"trials_evaluated"`
	CandidatesPruned int64 `json:"candidates_pruned"`

	// Engine work of the timed RunSharded call alone, as in the game record
	// (gamePreset): road point searches, then the trial-engine counters read
	// as deltas of the obs counters around the call. Each is the same at
	// every GOMAXPROCS, so the gate holds them exactly.
	PointSearches    int64 `json:"point_searches"`
	NearestFallbacks int64 `json:"nearest_fallbacks"`
	TravelMemoHits   int64 `json:"travel_memo_hits"`
	TravelMemoMisses int64 `json:"travel_memo_misses"`
	TasksScanned     int64 `json:"tasks_scanned"`

	// Partition profile (ShardReport; the cut fields from ShardReport.Cut).
	ExclusiveWorkers   int     `json:"exclusive_workers"`
	BoundaryWorkers    int     `json:"boundary_workers"`
	ConflictEdges      int     `json:"conflict_edges"`
	EmptyCut           bool    `json:"empty_cut"`
	Components         int     `json:"components"`
	Colors             int     `json:"colors"`
	LoadSkew           float64 `json:"load_skew"`
	ExchangeIterations int     `json:"exchange_iterations"`
	ExchangeTransfers  int     `json:"exchange_transfers"`
	ShardWallMaxMs     float64 `json:"shard_wall_max_ms"`

	// Auto is the ShardAuto decision record when this point ran with
	// "auto" in the sweep list; null for explicit counts.
	Auto *shardAutoRecord `json:"auto,omitempty"`

	// EquilibriumOK is the global Nash check on the sharded outcome;
	// IdenticalToS1 reports the fingerprint match against the one-shard run.
	// Speedup is this point's phase-2 wall over the one-shard point's of the
	// same size.
	EquilibriumOK bool    `json:"equilibrium_ok"`
	IdenticalToS1 bool    `json:"identical_to_s1"`
	Speedup       float64 `json:"speedup"`
}

// shardAutoRecord mirrors collab.ShardAutoPick for the JSON record.
type shardAutoRecord struct {
	Picked int `json:"picked"`
}

type shardConfig struct {
	dataset  workload.Dataset
	grid     int
	seed     int64
	jsonPath string
}

// parseShardCounts parses the -shard sweep list: comma-separated positive
// shard counts plus the word "auto" for the self-tuned point
// (collab.ShardAuto).
func parseShardCounts(s string) ([]int, error) {
	var counts []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "auto" {
			counts = append(counts, collab.ShardAuto)
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid shard count %q", tok)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("empty shard count list")
	}
	return counts, nil
}

// runShardSweep executes the sharded-engine benchmark and writes
// BENCH_shard.json. It returns an error when any point fails verification
// (non-equilibrium), or when a point with an empty interference cut routes
// some center differently from the one-shard engine or lets the exchange
// accept a transfer.
func runShardSweep(sizes []int, counts []int, cfg shardConfig) error {
	rec := shardRecord{
		Benchmark:  "shard-engine",
		Method:     "Seq-BDC",
		Dataset:    cfg.dataset.String(),
		Grid:       cfg.grid,
		Seed:       cfg.seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Env:        obs.EnvMeta(),
		Generated:  time.Now().UTC().Format(time.RFC3339),
	}

	for _, size := range sizes {
		p := workload.ScaleParams(cfg.dataset, size)
		raw, err := workload.Generate(p)
		if err != nil {
			return err
		}
		net, err := roadnet.New(raw.Bounds, cfg.grid, cfg.grid, p.Speed)
		if err != nil {
			return err
		}
		raw.Metric = net
		in, _, err := core.Partition(raw)
		if err != nil {
			return err
		}
		in.PrepareMetric()
		locs := make([]geo.Point, len(in.Centers))
		for i := range in.Centers {
			locs[i] = in.Centers[i].Loc
		}
		net.PrecomputeSources(locs)

		t0 := time.Now()
		p1 := make([]assign.Result, len(in.Centers))
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			p1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
		}
		phase1 := time.Since(t0)

		sizeLabel := fmt.Sprintf("%dk", size/1000)
		if size%1000 != 0 {
			sizeLabel = fmt.Sprintf("%d", size)
		} else if size%1_000_000 == 0 {
			sizeLabel = fmt.Sprintf("%dm", size/1_000_000)
		}

		ccfg := collab.Config{Scope: collab.FullReassign, Assigner: assign.Sequential}

		// Untimed warm-up run: grows the heap and scratch pools so every
		// timed point below — one-shard baseline included — competes warm,
		// keeping the speedup column honest. A single-point sweep
		// (the 1M record) has no intra-sweep comparison to keep honest, so
		// it skips the warm-up rather than double its multi-minute game.
		if len(counts) > 1 {
			collab.Run(in, p1, ccfg)
		}

		var s1Fingerprint uint64
		var s1Routes []model.Assignment
		var s1Wall time.Duration
		for _, k := range counts {
			searches := net.Stats().PointSearches
			work := readEngineWork()
			t0 = time.Now()
			res, srep := collab.RunSharded(in, p1, collab.ShardConfig{
				Config: ccfg,
				Shards: k,
				Seed:   cfg.seed,
			})
			wall := time.Since(t0)
			searches = net.Stats().PointSearches - searches
			work = readEngineWork().minus(work)
			srep.Cut(in, p1, ccfg.Scope)

			fp := provenance.SolutionFingerprint(res.Solution)
			if k == counts[0] {
				s1Fingerprint, s1Routes, s1Wall = fp, res.Solution.PerCenter, wall
			}

			var wallMax time.Duration
			for _, d := range srep.ShardWall {
				if d > wallMax {
					wallMax = d
				}
			}
			name := fmt.Sprintf("%s-s%d", sizeLabel, k)
			if k == collab.ShardAuto {
				name = sizeLabel + "-sauto"
			}
			pr := shardPreset{
				Name:    name,
				Tasks:   p.NumTasks,
				Workers: p.NumWorkers,
				Centers: p.NumCenters,

				ShardsRequested: k,
				Shards:          srep.Shards,

				Phase1Ms:    ms(phase1),
				Phase2Ms:    ms(wall),
				Iterations:  res.Iterations,
				Transfers:   len(res.Solution.Transfers),
				Assigned:    res.Solution.AssignedCount(),
				Unfairness:  metrics.SolutionUnfairness(in, res.Solution),
				Fingerprint: fmt.Sprintf("%016x", fp),

				PointSearches:    searches,
				NearestFallbacks: work[0],
				TravelMemoHits:   work[1],
				TravelMemoMisses: work[2],
				TasksScanned:     work[3],

				ExclusiveWorkers:   srep.ExclusiveWorkers,
				BoundaryWorkers:    srep.BoundaryWorkers,
				ConflictEdges:      srep.ConflictEdges,
				EmptyCut:           srep.EmptyCut,
				Components:         srep.Components,
				Colors:             srep.Colors,
				LoadSkew:           srep.LoadSkew,
				ExchangeIterations: srep.ExchangeIterations,
				ExchangeTransfers:  srep.ExchangeTransfers,
				ShardWallMaxMs:     ms(wallMax),

				IdenticalToS1: fp == s1Fingerprint,
			}
			if srep.Auto != nil {
				pr.Auto = &shardAutoRecord{Picked: srep.Auto.Picked}
			}
			iterQ := obs.NewQuantile()
			for _, step := range res.Trace {
				iterQ.ObserveDuration(step.Duration)
				pr.TrialsEvaluated += int64(step.Trials)
				pr.CandidatesPruned += int64(step.Pruned)
			}
			iterSnap := iterQ.Snapshot()
			pr.IterP50Ms = iterSnap.Quantile(0.50) * 1e3
			pr.IterP99Ms = iterSnap.Quantile(0.99) * 1e3
			if wall > 0 {
				pr.Speedup = s1Wall.Seconds() / wall.Seconds()
			}

			t0 = time.Now()
			pr.EquilibriumOK = collab.VerifyEquilibrium(in, res.Solution, nil) == nil
			verify := time.Since(t0)

			rec.Presets = append(rec.Presets, pr)

			req := fmt.Sprintf("%d", pr.ShardsRequested)
			if pr.ShardsRequested == collab.ShardAuto {
				req = "auto"
				if pr.Auto != nil {
					req = fmt.Sprintf("auto→%d", pr.Auto.Picked)
				}
			}
			fmt.Printf("shard %s — |S|=%d |W|=%d |C|=%d grid=%d² (uncapped)\n",
				pr.Name, pr.Tasks, pr.Workers, pr.Centers, cfg.grid)
			fmt.Printf("  shards %d (requested %s): exclusive %d, boundary %d, conflict edges %d, empty_cut=%v, components %d, colors %d, load skew %.2f\n",
				pr.Shards, req, pr.ExclusiveWorkers, pr.BoundaryWorkers,
				pr.ConflictEdges, pr.EmptyCut, pr.Components, pr.Colors, pr.LoadSkew)
			fmt.Printf("  ph2 %.0f ms (slowest shard %.0f ms), %d iters (%d transfers, %d exchange iters), assigned %d, U_ρ %.4f\n",
				pr.Phase2Ms, pr.ShardWallMaxMs, pr.Iterations, pr.Transfers,
				pr.ExchangeIterations, pr.Assigned, pr.Unfairness)
			fmt.Printf("  iter latency ms: p50 %.3f p99 %.3f; trials %d, pruned %d\n",
				pr.IterP50Ms, pr.IterP99Ms, pr.TrialsEvaluated, pr.CandidatesPruned)
			fmt.Printf("  work: point searches %d, nearest fallbacks %d, travel memo %d hits / %d misses, tasks scanned %d\n",
				pr.PointSearches, pr.NearestFallbacks, pr.TravelMemoHits, pr.TravelMemoMisses, pr.TasksScanned)
			fmt.Printf("  equilibrium_ok=%v (verified in %.0f ms), identical_to_s1=%v, speedup %.2fx\n\n",
				pr.EquilibriumOK, ms(verify), pr.IdenticalToS1, pr.Speedup)

			if !pr.EquilibriumOK {
				return fmt.Errorf("shard %s: final state is not a Nash equilibrium", pr.Name)
			}
			if pr.EmptyCut && !reflect.DeepEqual(res.Solution.PerCenter, s1Routes) {
				return fmt.Errorf("shard %s: empty interference cut but the routes diverged from "+
					"the one-shard engine's", pr.Name)
			}
			if pr.EmptyCut && pr.ExchangeTransfers != 0 {
				return fmt.Errorf("shard %s: empty interference cut but the exchange accepted %d transfers",
					pr.Name, pr.ExchangeTransfers)
			}
		}
	}

	f, err := os.Create(cfg.jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shard record written to %s\n", cfg.jsonPath)
	return nil
}
