package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"imtao"
	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/provenance"
	"imtao/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the solver sees, measured with tracing
// off. BENCHMARK.json declares the same list with its bounds.
var endToEnd = []metricDef{
	{"solve_p50_ms", "ms"},
	{"solve_cpu_ms", "ms"},
	{"tasks_per_s", "1/s"},
	{"setup_s", "s"},
	{"assigned", "count"},
	{"unfairness", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the per-layer metrics. The prefix before the first dot names
// the layer; README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"roadnet.build_ms", "ms"},
	{"roadnet.pin_ms", "ms"},
	{"roadnet.search_us", "us"},
	{"roadnet.searches", "count"},
	{"roadnet.evictions", "count"},
	{"roadnet.refault_ratio", "ratio"},
	{"roadnet.search_share", "ratio"},
	{"roadnet.phase1_searches", "count"},
	{"roadnet.phase2_searches", "count"},
	{"voronoi.partition_ms", "ms"},
	{"model.prepare_ms", "ms"},
	{"assign.phase1_ms", "ms"},
	{"assign.center_p50_ms", "ms"},
	{"assign.center_max_ms", "ms"},
	{"assign.tasks_scanned", "count"},
	{"assign.route_extensions", "count"},
	{"assign.deadline_rejections", "count"},
	{"collab.iterations", "count"},
	{"collab.accept_ratio", "ratio"},
	{"collab.trials", "count"},
	{"collab.pruned", "count"},
	{"collab.resumed", "count"},
	{"collab.memo_hits", "count"},
	{"collab.prune_ratio", "ratio"},
	{"collab.step_p50_ms", "ms"},
	{"collab.step_p90_ms", "ms"},
	{"collab.finish_ms", "ms"},
	{"collab.verify_ms", "ms"},
	{"shard.count", "count"},
	{"shard.plan_ms", "ms"},
	{"shard.run_ms", "ms"},
	{"shard.autotune_ms", "ms"},
	{"shard.boundary_workers", "count"},
	{"shard.conflict_edges", "count"},
	{"shard.components", "count"},
	{"shard.load_skew", "ratio"},
	{"shard.phase_a_iterations", "count"},
	{"shard.game_wall_max_ms", "ms"},
	{"shard.game_wall_sum_ms", "ms"},
	{"shard.exchange_iterations", "count"},
	{"shard.exchange_transfers", "count"},
	{"shard.exchange_ms", "ms"},
	{"shard.exchange_share", "ratio"},
	{"provenance.iter_records", "count"},
	{"provenance.trial_records", "count"},
	{"provenance.final_ms", "ms"},
	{"provenance.final_searches", "count"},
	{"provenance.cert_build_ms", "ms"},
	{"provenance.write_bytes", "bytes"},
	{"provenance.write_ms", "ms"},
	{"provenance.replay_ms", "ms"},
	{"provenance.cert_verify_ms", "ms"},
	{"obs.spans", "count"},
	{"obs.spans_dropped", "count"},
	{"obs.jsonl_bytes", "bytes"},
	{"audit.overhead_ms", "ms"},
	{"audit.plain_ms", "ms"},
	{"core.phase1_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.other_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.steal_share", "ratio"},
	{"traced.overhead_pct", "%"},
	{"traced.valid", "bool"},
}

// usesLayer reports whether the workload runs the layer a metric belongs
// to. Metrics of bypassed layers read 0 and are left out of the text report.
func (w spec) usesLayer(metric string) bool {
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "roadnet":
		return w.grid > 0
	case "collab":
		return w.method.Collab != imtao.SeqWoC.Collab
	case "shard":
		return w.sharded
	case "provenance", "obs", "audit":
		return w.audit
	}
	return true
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timings returns the timed solves' wall and CPU times in ms.
func (tr *timedRun) timings() (walls, cpus []float64) {
	for _, s := range tr.solves {
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu))
	}
	return walls, cpus
}

// endToEndMetrics computes the end-to-end metrics of a timed run.
func (w spec) endToEndMetrics(tr *timedRun) map[string]float64 {
	walls, cpus := tr.timings()
	var sumWall float64
	for _, v := range walls {
		sumWall += v
	}
	var setups, assigned, unfair []float64
	for _, s := range tr.setups {
		setups = append(setups, s.setup.Seconds())
		assigned = append(assigned, float64(s.assigned))
		unfair = append(unfair, s.unfairness)
	}
	// U_ρ is averaged over the run's instances: with this few of them the
	// mean moves less from seed to seed than the median, and unlike
	// assigned it need not be one instance's exact value.
	m := map[string]float64{
		"solve_p50_ms": median(walls),
		"solve_cpu_ms": median(cpus),
		"setup_s":      median(setups),
		"assigned":     median(assigned),
		"unfairness":   stats.Summarize(unfair).Mean,
		"peak_rss_mb":  tr.peakRSS,
		"ok_ratio":     float64(tr.attempted-tr.failed) / float64(tr.attempted),
	}
	if sumWall > 0 {
		m["tasks_per_s"] = float64(w.tasks) * float64(len(walls)) / (sumWall / 1000)
	}
	return m
}

// solveLayerMetrics reads the per-layer metrics that every timed solve
// reports at no timing cost: oracle counters, phase times, allocation.
func (w spec) solveLayerMetrics(tr *timedRun, m map[string]float64) {
	var searches, evictions, p1, p2, other, alloc, gcs, spans, dropped, jsonl []float64
	var sumSearches, sumNew int64
	for _, s := range tr.solves {
		searches = append(searches, float64(s.searches))
		evictions = append(evictions, float64(s.evictions))
		sumSearches += s.searches
		sumNew += s.newSources
		p1 = append(p1, ms(s.phase1))
		p2 = append(p2, ms(s.phase2))
		other = append(other, ms(s.wall-s.phase1-s.phase2))
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
		gcs = append(gcs, float64(s.gcCycles))
		spans = append(spans, float64(s.spans))
		dropped = append(dropped, float64(s.spansDropped))
		jsonl = append(jsonl, float64(s.jsonlBytes))
	}
	m["roadnet.searches"] = median(searches)
	m["roadnet.evictions"] = median(evictions)
	m["roadnet.refault_ratio"] = refaultRatio(sumSearches, sumNew)
	m["core.phase1_ms"] = median(p1)
	m["core.phase2_ms"] = median(p2)
	m["core.other_ms"] = median(other)
	m["runtime.alloc_mb"] = median(alloc)
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.steal_share"] = tr.stealShare()
	m["obs.spans"] = median(spans)
	m["obs.spans_dropped"] = median(dropped)
	m["obs.jsonl_bytes"] = median(jsonl)
}

// tracedSolves is how many traced solves a run makes: about three seconds'
// worth, at least one and at most three.
func (w spec) tracedSolves() int { return min(3, max(1, int(3000/w.solveMs))) }

// auditPairs is the number of interleaved plain and instrumented solves
// behind audit.overhead_ms.
const auditPairs = 5

// tracedPass runs the traced pass on the timed run's last set-up and fills
// every per-layer metric it measures. m already holds the solve-level ones.
// The pass is valid only when every traced solve reproduces the timed
// solve's fingerprint and the fixed-count sharded run, the audit pairs and
// the ledger agree with it.
func (w spec) tracedPass(tr *timedRun, log *spanLog, m map[string]float64) error {
	in, net := tr.in, tr.net
	want := tr.setups[len(tr.setups)-1].fingerprint
	valid := true

	var last *tracedSolve
	var walls, unattributed, phase1, centerMax, centers, steps, finish, finals, certs []float64
	for r := 1; r <= w.tracedSolves(); r++ {
		runtime.GC()
		ts, err := w.traceSolve(in, net, log, r)
		if err != nil {
			return err
		}
		if provenance.SolutionFingerprint(ts.sol) != want {
			valid = false
		}
		walls = append(walls, ms(ts.wall))
		unattributed = append(unattributed, ms(ts.wall-ts.attributed))
		phase1 = append(phase1, ms(ts.phase1))
		cms := durationsMs(ts.centers)
		centers = append(centers, cms...)
		centerMax = append(centerMax, stats.Quantile(cms, 1))
		steps = append(steps, durationsMs(ts.steps)...)
		finish = append(finish, ms(ts.finish))
		finals = append(finals, ms(ts.finalDur))
		certs = append(certs, ms(ts.certDur))
		last = ts
	}
	m["traced.overhead_pct"] = 100 * (median(walls) - m["solve_p50_ms"]) / m["solve_p50_ms"]
	m["core.unattributed_ms"] = median(unattributed)
	m["assign.phase1_ms"] = median(phase1)
	m["assign.center_p50_ms"] = median(centers)
	m["assign.center_max_ms"] = median(centerMax)
	m["assign.tasks_scanned"] = float64(last.assignStats.TasksScanned)
	m["assign.route_extensions"] = float64(last.assignStats.RouteExtensions)
	m["assign.deadline_rejections"] = float64(last.assignStats.DeadlineRejections)
	m["roadnet.phase1_searches"] = float64(last.searchesPhase1)
	m["roadnet.phase2_searches"] = float64(last.searchesPhase2)

	if w.method.Collab != imtao.SeqWoC.Collab {
		w.gameMetrics(last, steps, finish, m)
		// The verdict is the set-up checks' business; here only the cost
		// of verifying counts.
		d := log.timed(0, 0, "collab.verify", func() {
			_ = collab.VerifyEquilibrium(in, last.sol, assign.Sequential)
		})
		m["collab.verify_ms"] = ms(d)
	}
	if w.sharded {
		if !w.shardMetrics(tr, last, log, m) {
			valid = false
		}
	}
	if w.audit {
		if !w.auditMetrics(tr, last, log, finals, certs, m) {
			valid = false
		}
	}
	if net != nil {
		if err := w.scratchOracleMetrics(tr.raw, log, m); err != nil {
			return err
		}
		m["roadnet.search_share"] = m["roadnet.searches"] * m["roadnet.search_us"] / 1000 / m["solve_cpu_ms"]
	}
	if err := w.partitionMetrics(tr.raw, log, m); err != nil {
		return err
	}
	if valid {
		m["traced.valid"] = 1
	}
	return nil
}

// gameMetrics reads the collaboration game's counters from the last traced
// solve's iteration trace and its step and finish timings.
func (w spec) gameMetrics(ts *tracedSolve, steps, finish []float64, m map[string]float64) {
	var accepted, trials, pruned, resumed, memo int
	var stepDur []float64
	for _, st := range ts.game.Trace {
		if st.Accepted {
			accepted++
		}
		trials += st.Trials
		pruned += st.Pruned
		resumed += st.Resumed
		memo += st.MemoHits
		stepDur = append(stepDur, ms(st.Duration))
	}
	iters := len(ts.game.Trace)
	m["collab.iterations"] = float64(iters)
	if iters > 0 {
		m["collab.accept_ratio"] = float64(accepted) / float64(iters)
	}
	m["collab.trials"] = float64(trials)
	m["collab.pruned"] = float64(pruned)
	m["collab.resumed"] = float64(resumed)
	m["collab.memo_hits"] = float64(memo)
	if looked := pruned + trials + memo; looked > 0 {
		m["collab.prune_ratio"] = float64(pruned) / float64(looked)
	}
	if len(steps) == 0 {
		// The sharded engine plays its games inside RunSharded, so its step
		// times come from the engine's own per-iteration clock.
		steps = stepDur
	}
	m["collab.step_p50_ms"] = median(steps)
	m["collab.step_p90_ms"] = stats.Quantile(steps, 0.9)
	m["collab.finish_ms"] = median(finish)
}

// shardMetrics times PlanShards and RunSharded at the count the autotuner
// picked and splits the sharded phase 2 into autotune, shard games and the
// exchange. It reports whether the fixed-count run reproduced the traced
// solve's solution.
func (w spec) shardMetrics(tr *timedRun, ts *tracedSolve, log *spanLog, m map[string]float64) bool {
	in := tr.in
	picked := ts.shard.Shards
	if ts.shard.Auto != nil {
		picked = ts.shard.Auto.Picked
	}
	plan := log.timed(0, 0, "collab.plan_shards", func() { collab.PlanShards(in, picked, 0) })
	var res collab.Result
	var srep collab.ShardReport
	run := log.timed(0, 0, "collab.run_sharded", func() {
		res, srep = collab.RunSharded(in, ts.phase1Results, collab.ShardConfig{
			Config: gameConfig(), Shards: picked})
	})
	var wallMax, wallSum time.Duration
	for _, d := range srep.ShardWall {
		wallMax = max(wallMax, d)
		wallSum += d
	}
	phaseA := 0
	for _, it := range srep.ShardIterations {
		phaseA += it
	}
	games := lptMakespan(srep.ShardWall, min(runtime.GOMAXPROCS(0), max(1, srep.Shards)))
	exchange := run - games
	m["shard.count"] = float64(srep.Shards)
	m["shard.plan_ms"] = ms(plan)
	m["shard.run_ms"] = ms(run)
	m["shard.autotune_ms"] = ms(ts.phase2 - run)
	m["shard.boundary_workers"] = float64(srep.BoundaryWorkers)
	m["shard.conflict_edges"] = float64(srep.ConflictEdges)
	m["shard.components"] = float64(srep.Components)
	m["shard.load_skew"] = srep.LoadSkew
	m["shard.phase_a_iterations"] = float64(phaseA)
	m["shard.game_wall_max_ms"] = ms(wallMax)
	m["shard.game_wall_sum_ms"] = ms(wallSum)
	m["shard.exchange_iterations"] = float64(srep.ExchangeIterations)
	m["shard.exchange_transfers"] = float64(srep.ExchangeTransfers)
	m["shard.exchange_ms"] = ms(exchange)
	if run > 0 {
		m["shard.exchange_share"] = float64(exchange) / float64(run)
	}
	return provenance.SolutionFingerprint(res.Solution) == provenance.SolutionFingerprint(ts.sol)
}

// auditMetrics measures the recording channels: the ledger's volume and the
// cost of writing, replaying and verifying it, and the overhead of all
// channels together from interleaved plain and instrumented solves. It
// reports whether the replay and the certificate held.
func (w spec) auditMetrics(tr *timedRun, ts *tracedSolve, log *spanLog, finals, certs []float64, m map[string]float64) bool {
	in, led, sol := tr.in, ts.ledger, ts.sol
	ok := true
	var plains, diffs []float64
	for i := 0; i < auditPairs; i++ {
		var plain, instr time.Duration
		for j := 0; j < 2; j++ {
			instrumented := (i+j)%2 == 1
			var opts []imtao.RunOption
			if instrumented {
				opts, _ = w.runOptions()
			}
			runtime.GC()
			t0 := time.Now()
			rep, err := imtao.Run(in, w.method, opts...)
			d := time.Since(t0)
			if err != nil || provenance.SolutionFingerprint(rep.Solution) != provenance.SolutionFingerprint(sol) {
				ok = false
			}
			if instrumented {
				instr = d
			} else {
				plain = d
			}
		}
		plains = append(plains, ms(plain))
		diffs = append(diffs, ms(instr-plain))
	}
	m["audit.overhead_ms"] = median(diffs)
	m["audit.plain_ms"] = median(plains)

	m["provenance.iter_records"] = float64(led.IterCount())
	m["provenance.trial_records"] = float64(led.TrialCount())
	m["provenance.final_ms"] = median(finals)
	m["provenance.final_searches"] = float64(ts.finalSearches)
	m["provenance.cert_build_ms"] = median(certs)
	var cw countingWriter
	write := log.timed(0, 0, "provenance.write", func() {
		if _, err := led.WriteTo(&cw); err != nil {
			ok = false
		}
	})
	m["provenance.write_bytes"] = float64(cw.n)
	m["provenance.write_ms"] = ms(write)
	replay := log.timed(0, 0, "provenance.replay", func() {
		rr, err := provenance.Replay(led)
		if err != nil || provenance.SolutionFingerprint(rr.Solution) != provenance.SolutionFingerprint(sol) {
			ok = false
		}
	})
	m["provenance.replay_ms"] = ms(replay)
	verify := log.timed(0, 0, "provenance.cert_verify", func() {
		if led.Cert == nil || led.Cert.Verify(in, sol) != nil {
			ok = false
		}
	})
	m["provenance.cert_verify_ms"] = ms(verify)
	return ok
}

// scratchRepeats is how many fresh scratch networks and partitions the
// set-up layer timings take the median of.
const scratchRepeats = 3

// oracleSearchSamples is the number of single-table searches behind
// roadnet.search_us.
const oracleSearchSamples = 64

// scratchOracleMetrics times the road network's set-up work on fresh
// networks of the workload's size — build, pinning the center tables, and
// single distance-table searches — so the long-lived network's cache is
// left alone.
func (w spec) scratchOracleMetrics(raw *imtao.Instance, log *spanLog, m map[string]float64) error {
	locs := centerLocs(raw)
	var builds, pins []float64
	var net *imtao.RoadNetwork
	for i := 0; i < scratchRepeats; i++ {
		var err error
		builds = append(builds, ms(log.timed(0, 0, "roadnet.build", func() {
			net, err = imtao.NewRoadNetwork(raw.Bounds, w.grid, w.grid, raw.Speed)
		})))
		if err != nil {
			return err
		}
		pins = append(pins, ms(log.timed(0, 0, "roadnet.pin_fresh", func() { net.PrecomputeSources(locs) })))
	}
	m["roadnet.build_ms"] = median(builds)
	m["roadnet.pin_ms"] = median(pins)

	// On an unpinned network the lower node id owns a pair's table, so each
	// query below from a distinct lower node to the last node builds exactly
	// one table.
	net, err := imtao.NewRoadNetwork(raw.Bounds, w.grid, w.grid, raw.Speed)
	if err != nil {
		return err
	}
	nodes := net.Nodes()
	far := net.NodeLoc(nodes - 1)
	runs0, _, _ := oracleCounters(net)
	var searches []float64
	for i := 0; i < oracleSearchSamples; i++ {
		src := net.NodeLoc(i * (nodes - 1) / oracleSearchSamples)
		d := log.timed(0, 0, "roadnet.search", func() { net.TravelTime(src, far) })
		searches = append(searches, float64(d)/float64(time.Microsecond))
	}
	if runs, _, _ := oracleCounters(net); runs-runs0 != oracleSearchSamples {
		return fmt.Errorf("scratch oracle: %d queries built %d tables", oracleSearchSamples, runs-runs0)
	}
	m["roadnet.search_us"] = median(searches)
	return nil
}

// partitionMetrics times the Voronoi partition of the last set-up's inputs
// and the metric preparation of the fresh instance it returns.
func (w spec) partitionMetrics(raw *imtao.Instance, log *spanLog, m map[string]float64) error {
	var parts, preps []float64
	for i := 0; i < scratchRepeats; i++ {
		runtime.GC()
		var in *imtao.Instance
		var err error
		parts = append(parts, ms(log.timed(0, 0, "voronoi.partition", func() {
			in, _, err = core.Partition(raw)
		})))
		if err != nil {
			return err
		}
		preps = append(preps, ms(log.timed(0, 0, "model.prepare_fresh", func() {
			in.PrepareMetric()
			in.EnsureHot()
		})))
	}
	m["voronoi.partition_ms"] = median(parts)
	m["model.prepare_ms"] = median(preps)
	return nil
}
