package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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

// The -game sweep is the acceptance benchmark of the phase-2 game engine
// (DESIGN.md §11): it runs the collaboration game UNCAPPED to equilibrium at
// 10k/50k/100k tasks on a road network, once with the optimized engine
// (admissibility pruning + prefix-resume trials + incremental bookkeeping)
// and once with the frozen pre-engine loop (collab.RunReference), asserts the
// outputs are identical (route fingerprint, assigned count, U_ρ, iteration
// count), verifies the final state is a Nash equilibrium, and records the
// speedup plus the engine's per-iteration latency percentiles and prune /
// resume rates. The optimized engine runs FIRST, so the frozen loop runs on
// a warm heap and warm scratch pools — the reported speedup is a lower
// bound.

// gameRecord is the schema of BENCH_game.json.
type gameRecord struct {
	Benchmark  string            `json:"benchmark"`
	Method     string            `json:"method"`
	Dataset    string            `json:"dataset"`
	Grid       int               `json:"grid"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Env        map[string]string `json:"env"`
	Generated  string            `json:"generated"`
	Presets    []gamePreset      `json:"presets"`
}

type gamePreset struct {
	Name    string `json:"name"`
	Tasks   int    `json:"tasks"`
	Workers int    `json:"workers"`
	Centers int    `json:"centers"`

	Phase1Ms float64 `json:"phase1_ms"`

	// Optimized engine (collab.Run), uncapped to equilibrium.
	Phase2Ms    float64 `json:"phase2_ms"`
	Iterations  int     `json:"iterations"`
	Transfers   int     `json:"transfers"`
	Assigned    int     `json:"assigned"`
	Unfairness  float64 `json:"unfairness"`
	Fingerprint string  `json:"fingerprint"`

	// Iteration latency, read from an obs.Quantile recorder fed with every
	// step of the trace — the same recorder kind /metrics scrapes, so bench
	// and live numbers share one definition (bounded-relative-error log
	// buckets; max is exact).
	IterP50Ms  float64 `json:"iter_p50_ms"`
	IterP90Ms  float64 `json:"iter_p90_ms"`
	IterP99Ms  float64 `json:"iter_p99_ms"`
	IterP999Ms float64 `json:"iter_p999_ms"`
	IterMaxMs  float64 `json:"iter_max_ms"`

	// Runtime health over the timed engine run: GC stop-the-world pause
	// quantiles from the delta of the runtime's cumulative pause histogram,
	// GC cycle count, and the cost of the vitals sampler that ran
	// concurrently at 100ms — the perf gate holds the sampler's own p99
	// tight so the watchdog can never silently become the workload.
	GCPauseP50Ms       float64 `json:"gc_pause_p50_ms"`
	GCPauseP99Ms       float64 `json:"gc_pause_p99_ms"`
	GCCycles           int64   `json:"gc_cycles"`
	SamplerSamples     int64   `json:"sampler_samples"`
	SamplerSampleP99Ms float64 `json:"sampler_sample_p99_ms"`

	// Engine work profile, summed over the trace. PruneRate is the fraction
	// of candidate lookups eliminated before evaluation; ResumeRate the
	// fraction of evaluated trials served by prefix-resume (1.0 for the
	// Sequential engine). TrialReplays counts the suffix replays behind the
	// evaluated trials (TraceStep.Replays): one per distinct non-empty trial
	// key, so fewer than the trials, and a pure function of the game's states.
	// PointSearches counts the road point searches of the timed engine run
	// alone (not the ledger, verification or reference legs): every travel
	// time the game computed that neither the trial memo nor a pinned center
	// table answered. Trials run on the stepping goroutine, so it is the
	// same at every GOMAXPROCS.
	CandidatesPruned int64   `json:"candidates_pruned"`
	TrialsEvaluated  int64   `json:"trials_evaluated"`
	TrialsResumed    int64   `json:"trials_resumed"`
	TrialReplays     int64   `json:"trial_replays"`
	PointSearches    int64   `json:"point_searches"`
	PruneRate        float64 `json:"prune_rate"`
	ResumeRate       float64 `json:"resume_rate"`
	SnapshotBytes    int64   `json:"snapshot_bytes"`

	// Trial-engine work of the timed engine run alone, read as deltas of the
	// obs counters around it: nearest-task queries whose neighbour list held
	// no live task and fell back to a scan of the live pool, trial travel
	// times the order table's memo answered and missed, and candidate-task
	// evaluations across every assignment call of the run. Like the point
	// searches, each is the same at every GOMAXPROCS, so the gate holds them
	// exactly: a change that makes each trial do more work moves them.
	NearestFallbacks int64 `json:"nearest_fallbacks"`
	TravelMemoHits   int64 `json:"travel_memo_hits"`
	TravelMemoMisses int64 `json:"travel_memo_misses"`
	TasksScanned     int64 `json:"tasks_scanned"`

	// Steady-state memory profile, sampled from a separate stepwise run of
	// the same game (collab.NewGame/Step) after a warm-up prefix:
	// AllocsPerIter is the MEDIAN heap allocations per game iteration over
	// the sampled window (0 in the zero-allocation steady state — the
	// occasional high-water growth of a recycled buffer shows up in the
	// mean, not the median), BytesPerIter the mean allocated bytes per
	// iteration, HeapInuseBytes the live heap at the end of the window.
	AllocsPerIter     float64 `json:"allocs_per_iter"`
	AllocsPerIterMean float64 `json:"allocs_per_iter_mean"`
	BytesPerIter      float64 `json:"bytes_per_iter"`
	HeapInuseBytes    int64   `json:"heap_inuse_bytes"`
	MemWindowIters    int     `json:"mem_window_iters"`

	// EquilibriumOK is the Nash check on the optimized engine's outcome.
	EquilibriumOK bool `json:"equilibrium_ok"`

	// Provenance-enabled leg: the same uncapped game re-run with a decision
	// ledger attached (scratch and memo arenas warm, so the comparison
	// isolates the recording cost). ProvOverheadPct is the wall-clock
	// overhead vs the bare engine in percent (perfgate holds it loosely ≤
	// the acceptance bound);
	// ProvReplayOK asserts the ledger replays to the engine's exact
	// fingerprint, ProvCertOK that the equilibrium certificate re-validates.
	ProvPhase2Ms     float64 `json:"prov_phase2_ms"`
	ProvOverheadPct  float64 `json:"prov_overhead_pct"`
	ProvIterRecords  int     `json:"prov_iter_records"`
	ProvTrialRecords int     `json:"prov_trial_records"`
	ProvReplayOK     bool    `json:"prov_replay_ok"`
	ProvCertOK       bool    `json:"prov_cert_ok"`

	// Frozen reference engine (collab.RunReference) on the same phase-1
	// state, and the cross-engine acceptance checks.
	RefPhase2Ms     float64 `json:"ref_phase2_ms"`
	RefIterMeanMs   float64 `json:"ref_iter_mean_ms"`
	Speedup         float64 `json:"speedup"`
	OutputIdentical bool    `json:"output_identical"`
}

type gameConfig struct {
	dataset  workload.Dataset
	grid     int
	jsonPath string
	// tracePath, when set, records the optimized engine's game iterations,
	// trials, and Dijkstra searches of every preset into one Chrome/Perfetto
	// span timeline. Tracing costs a little per trial, so the recorded
	// wall-clock numbers carry that overhead — leave it off for baselines.
	tracePath string
}

// runGameSweep executes the game-engine benchmark and writes BENCH_game.json.
// It returns an error (→ nonzero exit) when any acceptance check fails:
// engine/reference divergence, non-equilibrium, or an optimization that never
// engaged (zero pruned candidates or resumed trials).
func runGameSweep(sizes []int, cfg gameConfig) error {
	rec := gameRecord{
		Benchmark:  "game-engine",
		Method:     "Seq-BDC",
		Dataset:    cfg.dataset.String(),
		Grid:       cfg.grid,
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

		ccfg := collab.Config{Scope: collab.FullReassign, Assigner: assign.Sequential}

		label := fmt.Sprintf("%dk", size/1000)
		if size%1000 != 0 {
			label = fmt.Sprintf("%d", size)
		}

		var rootTS obs.TraceSpan
		if tr != nil {
			rootTS = tr.Start(0, "game_"+label,
				obs.F("tasks", p.NumTasks), obs.F("workers", p.NumWorkers),
				obs.F("centers", p.NumCenters))
			ccfg.Tracer = tr
			ccfg.TraceParent = rootTS.ID()
			net.SetTrace(tr, rootTS.ID())
		}

		// Runtime health instrumentation around the timed run: the vitals
		// sampler runs concurrently (its cost is part of what this bench
		// measures and gates), and the GC pause distribution of exactly this
		// window comes from differencing the runtime's cumulative histogram.
		pauseBefore, _ := obs.ReadRuntimeHistogram(gcPauseMetric)
		var memBefore runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		sampler := obs.NewRuntimeSampler(100*time.Millisecond, obs.NewRegistry(), nil)
		sampler.Start()

		searches := net.Stats().PointSearches
		work := readEngineWork()
		t0 = time.Now()
		res := collab.Run(in, p1, ccfg)
		engineWall := time.Since(t0)
		searches = net.Stats().PointSearches - searches
		work = readEngineWork().minus(work)

		sampler.Stop()
		pauseAfter, _ := obs.ReadRuntimeHistogram(gcPauseMetric)
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)

		if tr != nil {
			rootTS.End(obs.F("iterations", res.Iterations),
				obs.F("transfers", len(res.Solution.Transfers)))
			net.SetTrace(nil, 0)
			ccfg.Tracer, ccfg.TraceParent = nil, 0
		}

		pr := gamePreset{
			Name:    label,
			Tasks:   p.NumTasks,
			Workers: p.NumWorkers,
			Centers: p.NumCenters,

			Phase1Ms:    ms(phase1),
			Phase2Ms:    ms(engineWall),
			Iterations:  res.Iterations,
			Transfers:   len(res.Solution.Transfers),
			Assigned:    res.Solution.AssignedCount(),
			Unfairness:  metrics.SolutionUnfairness(in, res.Solution),
			Fingerprint: fmt.Sprintf("%016x", provenance.SolutionFingerprint(res.Solution)),

			PointSearches: searches,
			SnapshotBytes: int64(snapshotGauge.Value()),

			NearestFallbacks: work[0],
			TravelMemoHits:   work[1],
			TravelMemoMisses: work[2],
			TasksScanned:     work[3],
		}
		iterQ := obs.NewQuantile()
		for _, step := range res.Trace {
			pr.CandidatesPruned += int64(step.Pruned)
			pr.TrialsEvaluated += int64(step.Trials)
			pr.TrialsResumed += int64(step.Resumed)
			pr.TrialReplays += int64(step.Replays)
			iterQ.ObserveDuration(step.Duration)
		}
		lookups := pr.CandidatesPruned + pr.TrialsEvaluated
		if lookups > 0 {
			pr.PruneRate = float64(pr.CandidatesPruned) / float64(lookups)
		}
		if pr.TrialsEvaluated > 0 {
			pr.ResumeRate = float64(pr.TrialsResumed) / float64(pr.TrialsEvaluated)
		}
		iterSnap := iterQ.Snapshot()
		pr.IterP50Ms = iterSnap.Quantile(0.50) * 1e3
		pr.IterP90Ms = iterSnap.Quantile(0.90) * 1e3
		pr.IterP99Ms = iterSnap.Quantile(0.99) * 1e3
		pr.IterP999Ms = iterSnap.Quantile(0.999) * 1e3
		if iterSnap.Count > 0 {
			pr.IterMaxMs = iterSnap.Max * 1e3
		}

		pauseWindow := pauseAfter.Sub(pauseBefore)
		pr.GCPauseP50Ms = pauseWindow.Quantile(0.50) * 1e3
		pr.GCPauseP99Ms = pauseWindow.Quantile(0.99) * 1e3
		pr.GCCycles = int64(memAfter.NumGC - memBefore.NumGC)
		pr.SamplerSamples = sampler.Samples()
		pr.SamplerSampleP99Ms = sampler.SampleCost().Quantile(0.99) * 1e3

		pr.AllocsPerIter, pr.AllocsPerIterMean, pr.BytesPerIter,
			pr.HeapInuseBytes, pr.MemWindowIters = meterGameMemory(in, p1, ccfg, res.Iterations)

		t0 = time.Now()
		pr.EquilibriumOK = collab.VerifyEquilibrium(in, res.Solution, nil) == nil
		verify := time.Since(t0)

		// Provenance leg: identical game, ledger attached. Runs after the
		// timed engine so both sides run warm. The
		// overhead compares minima of alternating warm plain / ledgered
		// runs rather than a single pair: co-tenant contention on a
		// shared box only ever inflates a wall time, so min-of-N is the
		// robust estimator of the ledger's true cost (single-pair
		// measurements at 100k swing ±25% run to run).
		rhos := make([]float64, len(in.Centers))
		for ci := range p1 {
			rhos[ci] = metrics.Ratio(p1[ci].AssignedCount(), len(in.Centers[ci].Tasks))
		}
		var led *provenance.Ledger
		var pres collab.Result
		plainBase, provWall := time.Duration(0), time.Duration(0)
		for rep := 0; rep < 2; rep++ {
			t0 = time.Now()
			collab.Run(in, p1, ccfg)
			if w := time.Since(t0); rep == 0 || w < plainBase {
				plainBase = w
			}

			l := provenance.NewLedger()
			l.Start(provenance.Meta{Method: "Seq-BDC", Engine: "game",
				Scope: provenance.ScopeFull, Centers: len(in.Centers),
				Workers: len(in.Workers), Tasks: len(in.Tasks)})
			l.RecordPhase1(in, p1, rhos)
			pcfg := ccfg
			pcfg.Prov = l.NewGameLog(provenance.StageGame, -1)
			t0 = time.Now()
			r := collab.Run(in, p1, pcfg)
			if w := time.Since(t0); rep == 0 || w < provWall {
				provWall = w
			}
			led, pres = l, r
		}
		led.RecordFinal(in, pres.Solution, metrics.SolutionUnfairness(in, pres.Solution))
		pr.ProvPhase2Ms = ms(provWall)
		if plainBase > 0 {
			pr.ProvOverheadPct = (provWall.Seconds() - plainBase.Seconds()) / plainBase.Seconds() * 100
		}
		pr.ProvIterRecords = led.IterCount()
		pr.ProvTrialRecords = led.TrialCount()
		if rr, err := provenance.Replay(led); err == nil {
			pr.ProvReplayOK = provenance.SolutionFingerprint(rr.Solution) ==
				provenance.SolutionFingerprint(res.Solution)
		}
		cert := provenance.BuildCertificate(in, pres.Solution, provenance.ScopeFull)
		pr.ProvCertOK = cert.Equilibrium && cert.Verify(in, pres.Solution) == nil

		t0 = time.Now()
		ref := collab.RunReference(in, p1, ccfg)
		refWall := time.Since(t0)
		pr.RefPhase2Ms = ms(refWall)
		if ref.Iterations > 0 {
			pr.RefIterMeanMs = pr.RefPhase2Ms / float64(ref.Iterations)
		}
		if engineWall > 0 {
			pr.Speedup = refWall.Seconds() / engineWall.Seconds()
		}
		pr.OutputIdentical = provenance.SolutionFingerprint(res.Solution) == provenance.SolutionFingerprint(ref.Solution) &&
			res.Solution.AssignedCount() == ref.Solution.AssignedCount() &&
			pr.Unfairness == metrics.SolutionUnfairness(in, ref.Solution) &&
			res.Iterations == ref.Iterations

		rec.Presets = append(rec.Presets, pr)

		fmt.Printf("game %s — |S|=%d |W|=%d |C|=%d grid=%d² (uncapped)\n",
			pr.Name, pr.Tasks, pr.Workers, pr.Centers, cfg.grid)
		fmt.Printf("  engine: ph2 %.0f ms, %d iters (%d transfers), assigned %d, U_ρ %.4f\n",
			pr.Phase2Ms, pr.Iterations, pr.Transfers, pr.Assigned, pr.Unfairness)
		fmt.Printf("  iter latency ms: p50 %.3f p90 %.3f p99 %.3f p999 %.3f max %.3f\n",
			pr.IterP50Ms, pr.IterP90Ms, pr.IterP99Ms, pr.IterP999Ms, pr.IterMaxMs)
		fmt.Printf("  runtime: GC pause ms p50 %.3f p99 %.3f over %d cycles; "+
			"sampler %d samples, p99 cost %.3f ms\n",
			pr.GCPauseP50Ms, pr.GCPauseP99Ms, pr.GCCycles,
			pr.SamplerSamples, pr.SamplerSampleP99Ms)
		fmt.Printf("  pruned %d (rate %.4f), trials %d (resume rate %.4f, %d replays), %d point searches, snapshot %d B\n",
			pr.CandidatesPruned, pr.PruneRate, pr.TrialsEvaluated, pr.ResumeRate, pr.TrialReplays,
			pr.PointSearches, pr.SnapshotBytes)
		fmt.Printf("  trial work: %d nearest fallbacks, travel memo %d hits / %d misses, %d tasks scanned\n",
			pr.NearestFallbacks, pr.TravelMemoHits, pr.TravelMemoMisses, pr.TasksScanned)
		fmt.Printf("  memory/iter over %d steady iters: allocs p50 %.0f (mean %.2f), %.0f B, heap in use %d B\n",
			pr.MemWindowIters, pr.AllocsPerIter, pr.AllocsPerIterMean, pr.BytesPerIter, pr.HeapInuseBytes)
		fmt.Printf("  equilibrium_ok=%v (verified in %.0f ms)\n", pr.EquilibriumOK, ms(verify))
		fmt.Printf("  provenance: ph2 %.0f ms (%+.2f%% overhead), %d iter / %d trial records, replay_ok=%v cert_ok=%v\n",
			pr.ProvPhase2Ms, pr.ProvOverheadPct, pr.ProvIterRecords, pr.ProvTrialRecords,
			pr.ProvReplayOK, pr.ProvCertOK)
		fmt.Printf("  frozen: ph2 %.0f ms (%.2f ms/iter) → speedup %.1fx, identical=%v\n\n",
			pr.RefPhase2Ms, pr.RefIterMeanMs, pr.Speedup, pr.OutputIdentical)

		if !pr.OutputIdentical {
			return fmt.Errorf("game %s: engine output diverged from the frozen reference "+
				"(fingerprint %s vs %016x)", pr.Name, pr.Fingerprint, provenance.SolutionFingerprint(ref.Solution))
		}
		if !pr.EquilibriumOK {
			return fmt.Errorf("game %s: final state is not a Nash equilibrium", pr.Name)
		}
		if pr.CandidatesPruned == 0 {
			return fmt.Errorf("game %s: admissibility pruning never engaged", pr.Name)
		}
		if pr.TrialsResumed == 0 {
			return fmt.Errorf("game %s: prefix-resume never engaged", pr.Name)
		}
		if pr.TrialReplays >= pr.TrialsEvaluated {
			return fmt.Errorf("game %s: %d suffix replays for %d trials — trial grouping never engaged",
				pr.Name, pr.TrialReplays, pr.TrialsEvaluated)
		}
		if !pr.ProvReplayOK {
			return fmt.Errorf("game %s: provenance ledger does not replay to the engine's fingerprint", pr.Name)
		}
		if !pr.ProvCertOK {
			return fmt.Errorf("game %s: equilibrium certificate failed verification", pr.Name)
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
	fmt.Fprintf(os.Stderr, "game record written to %s\n", cfg.jsonPath)
	return nil
}

// meterGameMemory replays the game stepwise (collab.NewGame/Step) on the
// same phase-1 state and samples per-iteration heap-allocation deltas over a
// steady-state window: 200 warm-up iterations grow every recycled buffer to
// its high-water capacity, then up to 256 iterations are measured with
// runtime.ReadMemStats around each Step. Returns the window's median and
// mean allocations per iteration, mean allocated bytes per iteration, the
// live heap at the end of the window, and the window length. The run is
// untimed, so the sampling overhead never touches the reported wall-clocks.
func meterGameMemory(in *model.Instance, p1 []assign.Result, ccfg collab.Config,
	totalIters int) (
	allocsMedian, allocsMean, bytesMean float64, heapInuse int64, window int) {

	ccfg.Tracer, ccfg.TraceParent, ccfg.Obs = nil, 0, nil
	g := collab.NewGame(in, p1, ccfg)
	defer g.Finish()
	// The game length is known from the timed run: warm over the first
	// half (capped) so every recycled buffer reaches its high-water
	// capacity, measure the rest.
	warmIters := totalIters / 2
	if warmIters > 200 {
		warmIters = 200
	}
	const windowIters = 256
	for i := 0; i < warmIters && g.Step(); i++ {
	}
	if g.Over() {
		return 0, 0, 0, 0, 0
	}
	g.Reserve(windowIters + 1)
	allocs := make([]float64, 0, windowIters)
	bytes := make([]float64, 0, windowIters)
	var m0, m1 runtime.MemStats
	for len(allocs) < windowIters {
		runtime.ReadMemStats(&m0)
		if !g.Step() {
			break
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	if len(allocs) == 0 {
		return 0, 0, 0, 0, 0
	}
	heapInuse = int64(m1.HeapInuse)
	allocsMedian = stats.Quantile(allocs, 0.5)
	var sumA, sumB float64
	for i := range allocs {
		sumA += allocs[i]
		sumB += bytes[i]
	}
	n := float64(len(allocs))
	return allocsMedian, sumA / n, sumB / n, heapInuse, len(allocs)
}

// engineWork is a reading of the trial-engine work counters, in gamePreset's
// order: nearest fallbacks, travel-memo hits, travel-memo misses, tasks
// scanned.
type engineWork [4]int64

// engineWorkCounters names the counters behind engineWork.
var engineWorkCounters = [4]string{
	"imtao_trial_nearest_fallbacks_total",
	"imtao_trial_travel_memo_hits_total",
	"imtao_trial_travel_memo_misses_total",
	"imtao_assign_tasks_scanned_total",
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

// gcPauseMetric is the runtime/metrics name of the cumulative GC
// stop-the-world pause histogram the per-preset window stats difference.
const gcPauseMetric = "/sched/pauses/total/gc:seconds"
