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
	"imtao/internal/stats"
	"imtao/internal/workload"
)

// The -shard sweep is the acceptance benchmark of the phase-2 game engine
// (DESIGN.md §11), of its region-sharded form (§15) and of the distance
// oracle that serves its travel times on a road network (§10): per task size
// it plays the game uncapped to equilibrium through collab.RunSharded at
// each requested shard count and records the wall-clock, the engine's and
// the oracle's work counters, the exchange rounds and, once the sweep has
// timed the size's one-shard point, the speedup over it. Shard count 1 IS
// the unsharded engine, and its point (e.g. 10k-s1) carries the engine
// record: the runtime vitals of its timed run, then, once the size's last
// point is timed, a steady-state allocation meter, one ledgered run and a
// check of sampled point searches against fresh full tables. After each
// timed solve, ShardReport.Cut adds the partition's interference profile,
// which the solve itself does not compute.
//
// Each scene must pin one distance table per distinct center node, and
// every point is Nash-verified and must build no full distance table while
// timed (the scene pinned every table the game reads); an empty-cut point
// must accept no transfer in the exchange and, once the one-shard point is
// timed, route every center as it does; the one-shard point must show
// pruning, prefix-resume and trial grouping engaged, a ledger that replays
// to its fingerprint, a valid equilibrium certificate and exact point
// searches. Any failure is a hard error (nonzero exit).

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
	// then the exchange): trials evaluated, candidates admission pruning
	// skipped, trials served by prefix-resume, and the suffix replays
	// behind the trials (TraceStep.Replays: one per trial key the bounded
	// sweep evaluated, so fewer than the trials). Trials run on the
	// stepping goroutine, so all four are the same at every GOMAXPROCS.
	TrialsEvaluated  int64 `json:"trials_evaluated"`
	CandidatesPruned int64 `json:"candidates_pruned"`
	TrialsResumed    int64 `json:"trials_resumed"`
	TrialReplays     int64 `json:"trial_replays"`

	// Engine work of the timed RunSharded call alone, read as deltas around
	// it: road point searches (travel times that neither the trial memo nor
	// a pinned center table answered) and the nodes they settled, pinned
	// table reads, full distance tables built (0: the scene pinned every
	// table the game reads), nearest-task queries whose neighbour list held
	// no live task and fell back to a scan of the live pool, trial travel
	// times the order table's memo answered and missed, candidate-task
	// evaluations across every assignment call, and the assignment calls
	// themselves. Every call is one evaluated trial key's Trial, and the
	// end check's sweeps are in no trace step, so assign_calls −
	// trial_replays counts exactly the end check's replays. Each is the
	// same at every GOMAXPROCS, so the gate holds them exactly: a change
	// that makes each trial do more work moves them.
	PointSearches    int64 `json:"point_searches"`
	SettledNodes     int64 `json:"settled_nodes"`
	PinnedReads      int64 `json:"pinned_reads"`
	FullSearches     int64 `json:"full_searches"`
	NearestFallbacks int64 `json:"nearest_fallbacks"`
	TravelMemoHits   int64 `json:"travel_memo_hits"`
	TravelMemoMisses int64 `json:"travel_memo_misses"`
	TasksScanned     int64 `json:"tasks_scanned"`
	AssignCalls      int64 `json:"assign_calls"`

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

	// EquilibriumOK is the global Nash check on the sharded outcome.
	EquilibriumOK bool `json:"equilibrium_ok"`
	// Only a point timed at or after its size's first one-shard point
	// carries the comparison with it.
	*s1Comparison

	// Only the one-shard point carries the engine record.
	*engineRecord
}

// s1Comparison compares a point with its size's first one-shard point:
// IdenticalToS1 reports the fingerprint match, and Speedup is the
// one-shard point's phase-2 wall over this point's.
type s1Comparison struct {
	IdenticalToS1 bool    `json:"identical_to_s1"`
	Speedup       float64 `json:"speedup"`
}

// engineRecord is what the one-shard point records beyond the common
// fields: latency tail, runtime health, memory profile, ledger cost and
// the oracle check.
type engineRecord struct {
	// The timed run's iteration-latency tail, and the shares of candidate
	// lookups pruning eliminated and of trials prefix-resume served.
	IterP999Ms float64 `json:"iter_p999_ms"`
	PruneRate  float64 `json:"prune_rate"`
	ResumeRate float64 `json:"resume_rate"`

	// Runtime health over the timed run (vitals): GC stop-the-world pause
	// quantiles and cycles, and the cost of the vitals sampler that ran
	// concurrently at 100 ms — the gate holds the sampler's own p99 tight
	// so the watchdog can never silently become the workload.
	// SnapshotBytes is the footprint of the last recipient's trial-base
	// snapshot (imtao_collab_snapshot_bytes) when the run ended.
	GCPauseP50Ms       float64 `json:"gc_pause_p50_ms"`
	GCPauseP99Ms       float64 `json:"gc_pause_p99_ms"`
	GCCycles           int64   `json:"gc_cycles"`
	SamplerSamples     int64   `json:"sampler_samples"`
	SamplerSampleP99Ms float64 `json:"sampler_sample_p99_ms"`
	SnapshotBytes      int64   `json:"snapshot_bytes"`

	// Steady-state memory profile of a stepwise replay of the same game
	// (meterGameMemory): the MEDIAN heap allocations per iteration over the
	// sampled window (0 in the zero-allocation steady state — the
	// occasional high-water growth of a recycled buffer shows up in the
	// mean, not the median), the mean allocated bytes per iteration, and
	// the live heap at the end of the window.
	AllocsPerIter     float64 `json:"allocs_per_iter"`
	AllocsPerIterMean float64 `json:"allocs_per_iter_mean"`
	BytesPerIter      float64 `json:"bytes_per_iter"`
	HeapInuseBytes    int64   `json:"heap_inuse_bytes"`
	MemWindowIters    int     `json:"mem_window_iters"`

	// Ledgered leg: the same game re-run once with a decision ledger
	// attached. The record counts are exact: iterations, trials, and the
	// route-delta records of the accepted iterations with their task IDs.
	// ProvReplayOK asserts the ledger replays to the timed run's
	// fingerprint, ProvCertOK that the equilibrium certificate verifies.
	ProvPhase2Ms     float64 `json:"prov_phase2_ms"`
	ProvIterRecords  int     `json:"prov_iter_records"`
	ProvTrialRecords int     `json:"prov_trial_records"`
	ProvRouteRecords int     `json:"prov_route_records"`
	ProvRouteTasks   int     `json:"prov_route_tasks"`
	ProvReplayOK     bool    `json:"prov_replay_ok"`
	ProvCertOK       bool    `json:"prov_cert_ok"`

	// Oracle check: the scene's pinned center tables, and whether every
	// sampled unpinned pair's point-search answer equals the entry of a
	// fresh full table from the same source, bit for bit.
	Pinned  int  `json:"pinned"`
	ExactOK bool `json:"exact_ok"`
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
	// tracePath, when set, records the timed runs as one Chrome/Perfetto
	// span timeline; it costs a little per trial, so baselines leave it off.
	tracePath string
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

// parseScaleSizes parses the -shard-scale list of task sizes, e.g.
// "10k,100k".
func parseScaleSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		v, err := workload.ParseScaleSize(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scale sizes given")
	}
	return out, nil
}

// scene is one sweep size's instance: generated, partitioned over a road
// network, with every entity snapped to it and the center tables pinned.
// That is the metric warm-up core.Run would otherwise do.
type scene struct {
	p     workload.Params
	in    *model.Instance
	net   *roadnet.Network
	label string
}

func buildScene(d workload.Dataset, size, grid int) (scene, error) {
	p := workload.ScaleParams(d, size)
	raw, err := workload.Generate(p)
	if err != nil {
		return scene{}, err
	}
	net, err := roadnet.New(raw.Bounds, grid, grid, p.Speed)
	if err != nil {
		return scene{}, err
	}
	raw.Metric = net
	in, _, err := core.Partition(raw)
	if err != nil {
		return scene{}, err
	}
	in.PrepareMetric()
	locs := make([]geo.Point, len(in.Centers))
	for i := range in.Centers {
		locs[i] = in.Centers[i].Loc
	}
	net.PrecomputeSources(locs)
	if err := checkPins(net, locs); err != nil {
		return scene{}, err
	}
	return scene{p: p, in: in, net: net, label: sizeLabel(size)}, nil
}

// checkPins fails unless the network holds exactly one pinned distance
// table per distinct center snap node. A missing pin turns that center's
// legs into point searches, which the timed runs' full_searches == 0 check
// cannot see.
func checkPins(net *roadnet.Network, locs []geo.Point) error {
	nodes := make(map[int32]bool, len(locs))
	for _, p := range locs {
		n, _ := net.SnapNode(p)
		nodes[n] = true
	}
	if pinned := net.Stats().Pinned; pinned != len(nodes) {
		return fmt.Errorf("scene pins %d distance tables for %d distinct center nodes", pinned, len(nodes))
	}
	return nil
}

// sizeLabel names a task count in preset names: "10k", "1m", or the plain
// count when it is not a round thousand.
func sizeLabel(size int) string {
	switch {
	case size%1_000_000 == 0:
		return fmt.Sprintf("%dm", size/1_000_000)
	case size%1000 == 0:
		return fmt.Sprintf("%dk", size/1000)
	}
	return fmt.Sprintf("%d", size)
}

// runShardSweep executes the sharded-engine benchmark and writes
// BENCH_shard.json. It returns an error when any point fails verification
// (non-equilibrium), when a point with an empty interference cut lets the
// exchange accept a transfer or routes some center differently from a
// one-shard point timed before it, or when an engine check of the
// one-shard point fails.
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
	snapshotGauge := obs.Default.Gauge("imtao_collab_snapshot_bytes", "")

	var tr *obs.Tracer
	if cfg.tracePath != "" {
		tr = obs.NewTracer(0)
	}

	for _, size := range sizes {
		sc, err := buildScene(cfg.dataset, size, cfg.grid)
		if err != nil {
			return err
		}
		in, net := sc.in, sc.net

		t0 := time.Now()
		p1 := make([]assign.Result, len(in.Centers))
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			p1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
		}
		phase1 := time.Since(t0)

		ccfg := collab.Config{Scope: collab.FullReassign, Assigner: assign.Sequential}

		// Untimed warm-up run at the first requested count: grows the heap
		// and scratch pools so every timed point below — the first one
		// included — competes warm, keeping the speedup column honest and a
		// single-count run's timing comparable with the same point's in a
		// sweep.
		collab.RunSharded(in, p1, collab.ShardConfig{Config: ccfg, Shards: counts[0], Seed: cfg.seed})

		// s1 is the size's first one-shard point, nil until it is timed.
		type s1Point struct {
			fp     uint64
			routes []model.Assignment
			wall   time.Duration
		}
		var s1 *s1Point
		// engine is the index of the size's one-shard point in rec.Presets,
		// and engineRes its timed result, for the untimed engine legs.
		engine := -1
		var engineRes collab.Result
		for _, k := range counts {
			name := fmt.Sprintf("%s-s%d", sc.label, k)
			if k == collab.ShardAuto {
				name = sc.label + "-sauto"
			}
			tcfg := ccfg
			var rootTS obs.TraceSpan
			if tr != nil {
				rootTS = tr.Start(0, "shard_"+name,
					obs.F("tasks", sc.p.NumTasks), obs.F("workers", sc.p.NumWorkers),
					obs.F("centers", sc.p.NumCenters))
				tcfg.Tracer, tcfg.TraceParent = tr, rootTS.ID()
				net.SetTrace(tr, rootTS.ID())
			}
			var vit *vitals
			if k == 1 {
				vit = startVitals()
			}

			st0 := net.Stats()
			work := readEngineWork()
			t0 = time.Now()
			res, srep := collab.RunSharded(in, p1, collab.ShardConfig{
				Config: tcfg,
				Shards: k,
				Seed:   cfg.seed,
			})
			wall := time.Since(t0)
			st := net.Stats()
			points := st.PointSearches - st0.PointSearches
			work = readEngineWork().minus(work)

			var eng *engineRecord
			if vit != nil {
				eng = vit.stop()
				eng.SnapshotBytes = int64(snapshotGauge.Value())
			}
			if tr != nil {
				rootTS.End(obs.F("iterations", res.Iterations),
					obs.F("transfers", len(res.Solution.Transfers)))
				net.SetTrace(nil, 0)
			}

			t0 = time.Now()
			srep.Cut(in, p1, ccfg.Scope)
			cutWall := time.Since(t0)

			fp := provenance.SolutionFingerprint(res.Solution)
			if k == 1 && s1 == nil {
				s1 = &s1Point{fp, res.Solution.PerCenter, wall}
			}

			var wallMax time.Duration
			for _, d := range srep.ShardWall {
				if d > wallMax {
					wallMax = d
				}
			}
			pr := shardPreset{
				Name:    name,
				Tasks:   sc.p.NumTasks,
				Workers: sc.p.NumWorkers,
				Centers: sc.p.NumCenters,

				ShardsRequested: k,
				Shards:          srep.Shards,

				Phase1Ms:    ms(phase1),
				Phase2Ms:    ms(wall),
				Iterations:  res.Iterations,
				Transfers:   len(res.Solution.Transfers),
				Assigned:    res.Solution.AssignedCount(),
				Unfairness:  metrics.SolutionUnfairness(in, res.Solution),
				Fingerprint: fmt.Sprintf("%016x", fp),

				PointSearches:    points,
				SettledNodes:     st.Settled - st0.Settled,
				PinnedReads:      work[0],
				FullSearches:     st.DijkstraRuns - st0.DijkstraRuns - points,
				NearestFallbacks: work[1],
				TravelMemoHits:   work[2],
				TravelMemoMisses: work[3],
				TasksScanned:     work[4],
				AssignCalls:      work[5],

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

				engineRecord: eng,
			}
			if srep.Auto != nil {
				pr.Auto = &shardAutoRecord{Picked: srep.Auto.Picked}
			}
			iterQ := obs.NewQuantile()
			for _, step := range res.Trace {
				iterQ.ObserveDuration(step.Duration)
				pr.TrialsEvaluated += int64(step.Trials)
				pr.CandidatesPruned += int64(step.Pruned)
				pr.TrialsResumed += int64(step.Resumed)
				pr.TrialReplays += int64(step.Replays)
			}
			iterSnap := iterQ.Snapshot()
			pr.IterP50Ms = iterSnap.Quantile(0.50) * 1e3
			pr.IterP99Ms = iterSnap.Quantile(0.99) * 1e3
			if s1 != nil {
				pr.s1Comparison = &s1Comparison{IdenticalToS1: fp == s1.fp}
				if wall > 0 {
					pr.Speedup = s1.wall.Seconds() / wall.Seconds()
				}
			}
			if eng != nil {
				eng.IterP999Ms = iterSnap.Quantile(0.999) * 1e3
				if lookups := pr.CandidatesPruned + pr.TrialsEvaluated; lookups > 0 {
					eng.PruneRate = float64(pr.CandidatesPruned) / float64(lookups)
				}
				if pr.TrialsEvaluated > 0 {
					eng.ResumeRate = float64(pr.TrialsResumed) / float64(pr.TrialsEvaluated)
				}
			}

			t0 = time.Now()
			pr.EquilibriumOK = collab.VerifyEquilibrium(in, res.Solution, nil) == nil
			verify := time.Since(t0)

			rec.Presets = append(rec.Presets, pr)
			if eng != nil {
				engine, engineRes = len(rec.Presets)-1, res
			}

			req := fmt.Sprintf("%d", pr.ShardsRequested)
			if pr.ShardsRequested == collab.ShardAuto {
				req = "auto"
				if pr.Auto != nil {
					req = fmt.Sprintf("auto→%d", pr.Auto.Picked)
				}
			}
			fmt.Printf("shard %s — |S|=%d |W|=%d |C|=%d grid=%d² (uncapped)\n",
				pr.Name, pr.Tasks, pr.Workers, pr.Centers, cfg.grid)
			fmt.Printf("  shards %d (requested %s): exclusive %d, boundary %d, conflict edges %d, empty_cut=%v, components %d, colors %d, load skew %.2f (cut %.0f ms)\n",
				pr.Shards, req, pr.ExclusiveWorkers, pr.BoundaryWorkers,
				pr.ConflictEdges, pr.EmptyCut, pr.Components, pr.Colors, pr.LoadSkew, ms(cutWall))
			fmt.Printf("  ph2 %.0f ms (slowest shard %.0f ms), %d iters (%d transfers, %d exchange iters), assigned %d, U_ρ %.4f\n",
				pr.Phase2Ms, pr.ShardWallMaxMs, pr.Iterations, pr.Transfers,
				pr.ExchangeIterations, pr.Assigned, pr.Unfairness)
			fmt.Printf("  iter latency ms: p50 %.3f p99 %.3f; trials %d (%d resumed, %d replays), pruned %d\n",
				pr.IterP50Ms, pr.IterP99Ms, pr.TrialsEvaluated, pr.TrialsResumed,
				pr.TrialReplays, pr.CandidatesPruned)
			fmt.Printf("  oracle: point searches %d (%d nodes settled), pinned reads %d, full searches %d\n",
				pr.PointSearches, pr.SettledNodes, pr.PinnedReads, pr.FullSearches)
			fmt.Printf("  work: nearest fallbacks %d, travel memo %d hits / %d misses, tasks scanned %d, assign calls %d\n",
				pr.NearestFallbacks, pr.TravelMemoHits, pr.TravelMemoMisses, pr.TasksScanned,
				pr.AssignCalls)
			cmp := "no one-shard point timed yet"
			if c := pr.s1Comparison; c != nil {
				cmp = fmt.Sprintf("identical_to_s1=%v, speedup %.2fx", c.IdenticalToS1, c.Speedup)
			}
			fmt.Printf("  equilibrium_ok=%v (verified in %.0f ms), %s\n\n",
				pr.EquilibriumOK, ms(verify), cmp)

			if !pr.EquilibriumOK {
				return fmt.Errorf("shard %s: final state is not a Nash equilibrium", pr.Name)
			}
			if pr.FullSearches != 0 {
				return fmt.Errorf("shard %s: the timed run built %d full distance tables beside the %d pinned",
					pr.Name, pr.FullSearches, st.Pinned)
			}
			if pr.EmptyCut && s1 != nil && !reflect.DeepEqual(res.Solution.PerCenter, s1.routes) {
				return fmt.Errorf("shard %s: empty interference cut but the routes diverged from "+
					"the one-shard engine's", pr.Name)
			}
			if pr.EmptyCut && pr.ExchangeTransfers != 0 {
				return fmt.Errorf("shard %s: empty interference cut but the exchange accepted %d transfers",
					pr.Name, pr.ExchangeTransfers)
			}
		}
		if engine >= 0 {
			if err := finishEngineRecord(&rec.Presets[engine], sc, cfg.grid, p1, ccfg, engineRes); err != nil {
				return err
			}
		}
	}

	if tr != nil {
		tf, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "span timeline (%d spans) written to %s — open in ui.perfetto.dev\n",
			tr.Len(), cfg.tracePath)
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

// finishEngineRecord runs the one-shard point's untimed legs after the
// size's last timed point, so none changes a timed run's heap: the
// steady-state memory meter, one ledgered run of the same game, then the
// oracle's exactness check, whose fresh tables stay out of the meter's heap.
// It prints the engine record and returns an error when an engine check
// fails.
func finishEngineRecord(pr *shardPreset, sc scene, grid int, p1 []assign.Result,
	ccfg collab.Config, res collab.Result) error {

	in, e := sc.in, pr.engineRecord
	meterGameMemory(e, in, p1, ccfg, res.Iterations)

	rhos := make([]float64, len(in.Centers))
	for ci := range p1 {
		rhos[ci] = metrics.Ratio(p1[ci].AssignedCount(), len(in.Centers[ci].Tasks))
	}
	led := provenance.NewLedger()
	led.Start(provenance.Meta{Method: "Seq-BDC", Engine: "game",
		Scope: provenance.ScopeFull, Centers: len(in.Centers),
		Workers: len(in.Workers), Tasks: len(in.Tasks)})
	led.RecordPhase1(in, p1, rhos)
	t0 := time.Now()
	pres, _ := collab.RunSharded(in, p1, collab.ShardConfig{Config: ccfg, Shards: 1, Ledger: led})
	e.ProvPhase2Ms = ms(time.Since(t0))
	led.RecordFinal(in, pres.Solution, metrics.SolutionUnfairness(in, pres.Solution))
	e.ProvIterRecords = led.IterCount()
	e.ProvTrialRecords = led.TrialCount()
	for _, g := range led.Logs {
		for i := range g.Iters {
			for _, rt := range g.RouteDelta(&g.Iters[i]) {
				e.ProvRouteRecords++
				e.ProvRouteTasks += len(rt.Tasks)
			}
		}
	}
	if rr, err := provenance.Replay(led); err == nil {
		e.ProvReplayOK = provenance.SolutionFingerprint(rr.Solution) ==
			provenance.SolutionFingerprint(res.Solution)
	}
	cert := provenance.BuildCertificate(in, pres.Solution, provenance.ScopeFull)
	e.ProvCertOK = cert.Equilibrium && cert.Verify(in, pres.Solution) == nil

	e.Pinned = sc.net.Stats().Pinned
	var err error
	if e.ExactOK, err = pointSearchesExact(sc.net, in, grid, sc.p.Speed); err != nil {
		return err
	}

	fmt.Printf("engine %s — iter p999 %.3f ms, prune rate %.4f, resume rate %.4f, snapshot %d B\n",
		pr.Name, e.IterP999Ms, e.PruneRate, e.ResumeRate, e.SnapshotBytes)
	fmt.Printf("  runtime: GC pause ms p50 %.3f p99 %.3f over %d cycles; sampler %d samples, p99 cost %.3f ms\n",
		e.GCPauseP50Ms, e.GCPauseP99Ms, e.GCCycles, e.SamplerSamples, e.SamplerSampleP99Ms)
	fmt.Printf("  memory/iter over %d steady iters: allocs p50 %.0f (mean %.2f), %.0f B, heap in use %d B\n",
		e.MemWindowIters, e.AllocsPerIter, e.AllocsPerIterMean, e.BytesPerIter, e.HeapInuseBytes)
	fmt.Printf("  provenance: ph2 %.0f ms, %d iter / %d trial / %d route records (%d route tasks), replay_ok=%v cert_ok=%v\n",
		e.ProvPhase2Ms, e.ProvIterRecords, e.ProvTrialRecords, e.ProvRouteRecords,
		e.ProvRouteTasks, e.ProvReplayOK, e.ProvCertOK)
	fmt.Printf("  oracle: %d pinned tables, exact_ok=%v\n\n", e.Pinned, e.ExactOK)

	switch {
	case pr.CandidatesPruned == 0:
		return fmt.Errorf("engine %s: admissibility pruning never engaged", pr.Name)
	case pr.TrialsResumed == 0:
		return fmt.Errorf("engine %s: prefix-resume never engaged", pr.Name)
	case pr.TrialReplays >= pr.TrialsEvaluated:
		return fmt.Errorf("engine %s: %d suffix replays for %d trials — trial grouping never engaged",
			pr.Name, pr.TrialReplays, pr.TrialsEvaluated)
	case !e.ProvReplayOK:
		return fmt.Errorf("engine %s: provenance ledger does not replay to the engine's fingerprint", pr.Name)
	case !e.ProvCertOK:
		return fmt.Errorf("engine %s: equilibrium certificate failed verification", pr.Name)
	case !e.ExactOK:
		return fmt.Errorf("engine %s: a point search differs from its full table", pr.Name)
	}
	return nil
}

// vitals brackets a timed run with runtime-health instrumentation: the
// vitals sampler runs concurrently (its cost is part of what the record
// gates), and the GC pauses of exactly this window come from differencing
// the runtime's cumulative pause histogram.
type vitals struct {
	pause   obs.RuntimeHistogram
	numGC   uint32
	sampler *obs.RuntimeSampler
}

// gcPauseMetric is the runtime/metrics name of the cumulative GC
// stop-the-world pause histogram the vitals window differences.
const gcPauseMetric = "/sched/pauses/total/gc:seconds"

func startVitals() *vitals {
	v := &vitals{sampler: obs.NewRuntimeSampler(100*time.Millisecond, obs.NewRegistry(), nil)}
	v.pause, _ = obs.ReadRuntimeHistogram(gcPauseMetric)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v.numGC = m.NumGC
	v.sampler.Start()
	return v
}

// stop ends the window and returns an engine record holding its readings.
func (v *vitals) stop() *engineRecord {
	v.sampler.Stop()
	pause, _ := obs.ReadRuntimeHistogram(gcPauseMetric)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	window := pause.Sub(v.pause)
	return &engineRecord{
		GCPauseP50Ms:       window.Quantile(0.50) * 1e3,
		GCPauseP99Ms:       window.Quantile(0.99) * 1e3,
		GCCycles:           int64(m.NumGC - v.numGC),
		SamplerSamples:     v.sampler.Samples(),
		SamplerSampleP99Ms: v.sampler.SampleCost().Quantile(0.99) * 1e3,
	}
}

// meterGameMemory replays the game stepwise (collab.NewGame/Step) on the
// same phase-1 state and samples per-iteration heap-allocation deltas over a
// steady-state window into e: up to 200 warm-up iterations grow every
// recycled buffer to its high-water capacity, then up to 256 iterations are
// measured with runtime.ReadMemStats around each Step. The run is untimed,
// so the sampling overhead never touches the reported wall-clocks.
func meterGameMemory(e *engineRecord, in *model.Instance, p1 []assign.Result,
	ccfg collab.Config, totalIters int) {

	ccfg.Tracer, ccfg.TraceParent, ccfg.Obs = nil, 0, nil
	g := collab.NewGame(in, p1, ccfg)
	defer g.Finish()
	// The game length is known from the timed run: warm over the first
	// half (capped), measure the rest.
	for i := 0; i < min(totalIters/2, 200) && g.Step(); i++ {
	}
	if g.Over() {
		return
	}
	const windowIters = 256
	g.Reserve(windowIters + 1)
	allocs := make([]float64, 0, windowIters)
	var sumAllocs, sumBytes float64
	var m0, m1 runtime.MemStats
	for len(allocs) < windowIters {
		runtime.ReadMemStats(&m0)
		if !g.Step() {
			break
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		sumAllocs += float64(m1.Mallocs - m0.Mallocs)
		sumBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	if n := float64(len(allocs)); n > 0 {
		e.AllocsPerIter = stats.Quantile(allocs, 0.5)
		e.AllocsPerIterMean, e.BytesPerIter = sumAllocs/n, sumBytes/n
		e.HeapInuseBytes, e.MemWindowIters = int64(m1.HeapInuse), len(allocs)
	}
}

// engineWork is a reading of the process-wide work counters, in
// shardPreset's order: pinned-table reads, nearest fallbacks, travel-memo
// hits, travel-memo misses, tasks scanned, assignment calls.
type engineWork [6]int64

// engineWorkCounters names the counters behind engineWork.
var engineWorkCounters = [6]string{
	"imtao_roadnet_cache_hits_total",
	"imtao_trial_nearest_fallbacks_total",
	"imtao_trial_travel_memo_hits_total",
	"imtao_trial_travel_memo_misses_total",
	"imtao_assign_tasks_scanned_total",
	"imtao_assign_calls_total",
}

func readEngineWork() engineWork {
	var w engineWork
	for i, name := range engineWorkCounters {
		w[i] = obs.Default.Counter(name, "").Value()
	}
	return w
}

func (w engineWork) minus(o engineWork) engineWork {
	for i := range w {
		w[i] -= o[i]
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// samplePoints draws up to n entity locations round-robin from centers,
// workers and tasks, so the check samples the distribution the pipeline
// actually queries.
func samplePoints(in *model.Instance, n int) []geo.Point {
	var pts []geo.Point
	for i := 0; len(pts) < n; i++ {
		added := false
		if i < len(in.Centers) {
			pts = append(pts, in.Centers[i].Loc)
			added = true
		}
		if len(pts) < n && i < len(in.Workers) {
			pts = append(pts, in.Workers[i].Loc)
			added = true
		}
		if len(pts) < n && i < len(in.Tasks) {
			pts = append(pts, in.Tasks[i].Loc)
			added = true
		}
		if !added {
			break
		}
	}
	return pts
}

// pointSearchesExact checks point searches of the pipeline network against
// full tables. It samples consecutive entity pairs that touch no center node,
// so net answers each with a point search from the lower node id, then pins
// exactly those sources on a fresh network and compares the two answers bit
// for bit.
func pointSearchesExact(net *roadnet.Network, in *model.Instance, grid int, speed float64) (bool, error) {
	centers := make(map[int32]bool, len(in.Centers))
	for _, c := range in.Centers {
		node, _ := net.SnapNode(c.Loc)
		centers[node] = true
	}
	pts := samplePoints(in, 257)
	type pair struct{ src, dst int32 }
	var pairs []pair
	var srcs []geo.Point
	for i := 1; i < len(pts); i++ {
		a, _ := net.SnapNode(pts[i-1])
		b, _ := net.SnapNode(pts[i])
		if a == b || centers[a] || centers[b] {
			continue
		}
		pairs = append(pairs, pair{min(a, b), max(a, b)})
		srcs = append(srcs, net.NodeLoc(int(min(a, b))))
	}
	if len(pairs) == 0 {
		return false, fmt.Errorf("no unpinned pairs to check")
	}
	fresh, err := roadnet.New(in.Bounds, grid, grid, speed)
	if err != nil {
		return false, err
	}
	fresh.PrecomputeSources(srcs)
	for _, p := range pairs {
		if net.TravelTimeNodes(p.src, 0, p.dst, 0) != fresh.TravelTimeNodes(p.src, 0, p.dst, 0) {
			return false, nil
		}
	}
	return true, nil
}
