// Package core assembles the IMTAO framework (paper §III, Fig. 2): the
// Voronoi service-area partition (Algorithm 1), the center-independent task
// assignment phase, and the game-theoretic inter-center workforce transfer
// phase, wired together with the bi-directional optimization loop.
//
// The package also names the eight evaluated methods of the paper —
// {Seq, Opt} × {BDC, RBDC, DC, w/o-C} — so the experiment harness, the CLI
// and the examples all speak the same vocabulary.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/fanout"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/voronoi"
)

// Pipeline-level metrics: partition and phase latencies land in quantile
// summaries so a /metrics scrape sees the latency distribution across runs,
// not just the last Report.
var (
	mRuns = obs.Default.Counter("imtao_runs_total",
		"IMTAO pipeline runs executed")
	mPartitions = obs.Default.Counter("imtao_partitions_total",
		"Voronoi service-area partitions computed")
	mPartitionSeconds = obs.Default.Quantile("imtao_partition_seconds",
		"wall-clock latency of the Voronoi partition")
	mPhase1Seconds = obs.Default.Quantile("imtao_phase1_seconds",
		"wall-clock latency of phase 1 (center-independent assignment)")
	mPhase2Seconds = obs.Default.Quantile("imtao_phase2_seconds",
		"wall-clock latency of phase 2 (collaboration game)")
	mCenterSeconds = obs.Default.Quantile("imtao_phase1_center_seconds",
		"wall time of one center's phase-1 assignment; the p99/p50 spread "+
			"exposes straggler centers that cap phase-1 parallel speedup")
)

// AssignerKind selects the per-center assignment algorithm.
type AssignerKind int

const (
	// Seq is the sequential task assignment heuristic (paper Algorithm 2).
	Seq AssignerKind = iota
	// Opt is the optimal per-center assignment baseline.
	Opt
)

// String implements fmt.Stringer.
func (a AssignerKind) String() string {
	if a == Opt {
		return "Opt"
	}
	return "Seq"
}

// CollabKind selects the phase-2 collaboration strategy.
type CollabKind int

const (
	// BDC is the paper's bi-directional collaboration: min-ratio recipient
	// selection with full per-center reassignment.
	BDC CollabKind = iota
	// RBDC is BDC with random recipient selection.
	RBDC
	// DC is decomposed collaboration: dispatched workers only receive
	// leftover tasks.
	DC
	// WoC disables collaboration entirely (w/o-C).
	WoC
)

// String implements fmt.Stringer.
func (c CollabKind) String() string {
	switch c {
	case RBDC:
		return "RBDC"
	case DC:
		return "DC"
	case WoC:
		return "w/o-C"
	default:
		return "BDC"
	}
}

// Method is one of the eight evaluated method combinations.
type Method struct {
	Assigner AssignerKind
	Collab   CollabKind
}

// String renders the paper's method naming, e.g. "Seq-BDC".
func (m Method) String() string { return m.Assigner.String() + "-" + m.Collab.String() }

// Methods lists all eight combinations in the paper's presentation order.
func Methods() []Method {
	var out []Method
	for _, a := range []AssignerKind{Seq, Opt} {
		for _, c := range []CollabKind{BDC, RBDC, DC, WoC} {
			out = append(out, Method{a, c})
		}
	}
	return out
}

// ParseMethod parses names like "Seq-BDC" or "opt-w/o-c" (case-insensitive).
func ParseMethod(s string) (Method, error) {
	for _, m := range Methods() {
		if equalFold(m.String(), s) {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("core: unknown method %q", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Config controls one IMTAO run.
type Config struct {
	Method Method
	// Seed drives the RBDC recipient choice; other methods are
	// deterministic and ignore it.
	Seed int64
	// OptBudget caps the Opt assigner's per-center search in steps
	// (assign.OptimalOptions.Budget); zero means run to optimality.
	OptBudget int
	// Observer receives the run's structured event stream: run_start,
	// per-center phase-1 statistics, phase latency spans, one game_iter per
	// collaboration iteration, and run_end. Nil disables emission (the
	// no-op default); see internal/obs for the event vocabulary.
	Observer obs.Observer
	// Tracer records the run's hierarchical span tree — run → phase1 →
	// per-center spans and run → phase2 → game iterations → trials, plus
	// metric-preparation and oracle Dijkstra spans — into a bounded
	// in-memory trace exportable as a Perfetto timeline
	// (obs.Tracer.WriteChromeTrace). Nil (the default) disables tracing at
	// zero cost: no span IDs are allocated and no clock is read.
	Tracer *obs.Tracer
	// Shards > 1 routes phase 2 through the region-sharded game engine
	// (collab.RunSharded, DESIGN.md §15–16): centers are partitioned into
	// that many geographic shards by task-weighted k-means (seeded by Seed),
	// shard-local best-response games run concurrently, and boundary workers
	// are settled by one serialized exchange game. ShardAuto asks the
	// engine to pick the count itself, about 16 centers per shard (the
	// pick lands in Report.Shard.Auto). Methods the sharded engine cannot
	// prove equivalent or convergent for (RBDC's random recipients,
	// budgeted Opt) fall back to the unsharded game; Report.Shard records
	// what actually ran. 0 or 1 is the ordinary single-game engine.
	Shards int
	// Prov, when non-nil, records the run's full decision provenance into
	// the given ledger — phase-1 routes and deadline-rejection scan events,
	// every phase-2 iteration with its trials and prune decisions, shard and
	// exchange structure, the final routes with cost breakdown, and (for the
	// Sequential assigner with collaboration on) the equilibrium
	// certificate. The same ledger is returned on Report.Provenance. Nil
	// (the default) keeps every recording hook at a single pointer check —
	// the engines' zero-allocation steady state is unchanged.
	Prov *provenance.Ledger
}

// ShardAuto as Config.Shards lets the sharded engine pick the shard count
// from the center count (collab.ShardAuto; imtao.WithShards(0) at the
// public surface).
const ShardAuto = collab.ShardAuto

// Report is the outcome of an IMTAO run.
type Report struct {
	Method   Method
	Solution *model.Solution
	// Phase1Assigned is the assigned count after the center-independent
	// phase, before any collaboration.
	Phase1Assigned   int
	Phase1Unfairness float64
	// Phase1Ratios is the per-center ratio vector after phase 1 — the game's
	// starting state, and iteration 0 of any convergence curve.
	Phase1Ratios []float64
	Assigned     int
	Ratios       []float64
	Unfairness   float64
	Transfers    int
	Trace        []collab.TraceStep
	Iterations   int
	Phase1Time   time.Duration
	Phase2Time   time.Duration
	// Shard describes the sharded engine's partition and reconciliation work
	// when Config.Shards > 1 engaged it (a one-shard report when the run
	// fell back to the unsharded game); nil for ordinary runs.
	Shard *collab.ShardReport
	// Provenance is the run's decision ledger when Config.Prov requested
	// one — Config.Prov itself, fully populated; nil otherwise. Query it in
	// memory (provenance.Replay, the explain helpers), or stream it to JSONL
	// with Ledger.WriteTo for cmd/imtao-explain.
	Provenance *provenance.Ledger
}

// ErrUnpartitioned is returned by Run when the instance has tasks or workers
// not attached to any center.
var ErrUnpartitioned = errors.New("core: instance has unattached tasks or workers; call Partition first")

// Partition attaches every task and worker of the instance to its nearest
// center, ties going to the smaller center index — paper Algorithm 1. It
// returns a new instance, whose centers list their tasks and workers in
// ascending ID order, and the Voronoi diagram of the center sites; the input
// is not modified. A center, task or worker at a non-finite location is
// rejected with an error wrapping model.ErrBadLocation.
func Partition(in *model.Instance) (*model.Instance, *voronoi.Diagram, error) {
	if len(in.Centers) == 0 {
		return nil, nil, voronoi.ErrTooFewSites
	}
	if err := in.CheckLocations(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	sites := make([]geo.Point, len(in.Centers))
	for i, c := range in.Centers {
		sites[i] = c.Loc
	}
	diagram, err := voronoi.NewDiagram(sites, in.Bounds)
	if err != nil {
		return nil, nil, err
	}
	out := in.Clone()
	// Look the tasks, then the workers, up in blocks on every core; each
	// lookup writes only its own entity's label.
	nt, n := len(out.Tasks), len(out.Tasks)+len(out.Workers)
	blocks := (n + partitionBlock - 1) / partitionBlock
	fanout.Each(blocks, func(b int) {
		for i := b * partitionBlock; i < min(n, (b+1)*partitionBlock); i++ {
			if i < nt {
				t := &out.Tasks[i]
				t.Center = model.CenterID(diagram.NearestSite(t.Loc))
			} else {
				w := &out.Workers[i-nt]
				w.Home = model.CenterID(diagram.NearestSite(w.Loc))
			}
		}
	})

	// Fill every center's lists once, in ID order, at exact capacity; a
	// center with no members keeps nil lists.
	nTasks := make([]int, len(out.Centers))
	for _, t := range out.Tasks {
		nTasks[t.Center]++
	}
	nWorkers := make([]int, len(out.Centers))
	for _, w := range out.Workers {
		nWorkers[w.Home]++
	}
	for ci := range out.Centers {
		c := &out.Centers[ci]
		c.Tasks, c.Workers = nil, nil
		if k := nTasks[ci]; k > 0 {
			c.Tasks = make([]model.TaskID, 0, k)
		}
		if k := nWorkers[ci]; k > 0 {
			c.Workers = make([]model.WorkerID, 0, k)
		}
	}
	for ti, t := range out.Tasks {
		c := &out.Centers[t.Center]
		c.Tasks = append(c.Tasks, model.TaskID(ti))
	}
	for wi, w := range out.Workers {
		c := &out.Centers[w.Home]
		c.Workers = append(c.Workers, model.WorkerID(wi))
	}
	mPartitions.Inc()
	mPartitionSeconds.ObserveDuration(time.Since(t0))
	return out, diagram, nil
}

// partitionBlock is the number of consecutive lookups one goroutine of
// Partition takes at a time. Smaller partitions run on the caller alone.
const partitionBlock = 4096

// Run executes the two-phase IMTAO pipeline on a partitioned instance.
func Run(in *model.Instance, cfg Config) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	for _, t := range in.Tasks {
		if t.Center == model.NoCenter {
			return nil, ErrUnpartitioned
		}
	}
	for _, w := range in.Workers {
		if w.Home == model.NoCenter {
			return nil, ErrUnpartitioned
		}
	}

	// The exact Optimal is passed as itself, so the game prunes for it as
	// for Sequential (collab.prunes); a budgeted Opt runs unpruned.
	assigner := collab.Assigner(assign.Sequential)
	if cfg.Method.Assigner == Opt {
		assigner = assign.Optimal
		if budget := cfg.OptBudget; budget > 0 {
			assigner = func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
				return assign.OptimalOpt(in, c, ws, ts, assign.OptimalOptions{Budget: budget})
			}
		}
	}

	prov := cfg.Prov
	if prov != nil {
		engine := "game"
		scope := provenance.ScopeFull
		switch cfg.Method.Collab {
		case WoC:
			engine, scope = "none", provenance.ScopeNone
		case DC:
			scope = provenance.ScopeLeftover
		}
		if engine == "game" && (cfg.Shards > 1 || cfg.Shards == ShardAuto) {
			engine = "sharded"
		}
		prov.Start(provenance.Meta{
			Method: cfg.Method.String(), Engine: engine, Scope: scope,
			Centers: len(in.Centers), Workers: len(in.Workers),
			Tasks: len(in.Tasks), Seed: cfg.Seed,
		})
	}

	o := cfg.Observer
	if o == nil {
		o = obs.Nop
	}
	tr := cfg.Tracer
	mRuns.Inc()
	runStart := time.Now()
	var runTS obs.TraceSpan
	if tr != nil {
		runTS = tr.Start(0, "run",
			obs.F("method", cfg.Method.String()),
			obs.F("centers", len(in.Centers)),
			obs.F("workers", len(in.Workers)),
			obs.F("tasks", len(in.Tasks)))
	}
	if obs.Enabled(o) {
		o.Event("run_start",
			obs.F("method", cfg.Method.String()),
			obs.F("centers", len(in.Centers)),
			obs.F("workers", len(in.Workers)),
			obs.F("tasks", len(in.Tasks)))
	}

	// Distance-oracle warm-up: resolve entity→node snaps and pin the center
	// source tables once per run. Every route starts at a center, so the
	// center tables answer the first leg of every trial the game plays; the
	// other legs are point searches. With a tracer attached, the oracle
	// records one span per full table build (the pinning here) under the run
	// span.
	if tr != nil {
		if st, ok := in.Metric.(interface {
			SetTrace(*obs.Tracer, obs.SpanID)
		}); ok {
			st.SetTrace(tr, runTS.ID())
			defer st.SetTrace(nil, 0)
		}
	}
	prepTS := tr.Start(runTS.ID(), "prepare_metric")
	in.PrepareMetric()
	// Build the hot slab here, once: the phase-1 assigners call EnsureHot,
	// which is not safe concurrently with itself on a fresh instance.
	in.EnsureHot()
	if pc, ok := in.Metric.(interface{ PrecomputeSources([]geo.Point) }); ok {
		locs := make([]geo.Point, len(in.Centers))
		for i := range in.Centers {
			locs[i] = in.Centers[i].Loc
		}
		pc.PrecomputeSources(locs)
	}
	prepTS.End()

	// Phase 1: center-independent task assignment. Centers are independent
	// by construction (the Voronoi partition is disjoint), so they are
	// assigned concurrently, each result landing in its fixed slot — the
	// output is identical to the serial loop at any parallelism.
	t0 := time.Now()
	phase1 := make([]assign.Result, len(in.Centers))
	var p1TS obs.TraceSpan
	if tr != nil {
		p1TS = tr.Start(runTS.ID(), "phase1")
	}
	// runCenter assigns one center, wrapped in a phase1_center span when
	// traced; it runs on the caller or on worker goroutines — the span
	// parent link is captured here, so the tree survives the fan-out.
	runCenter := func(ci int) {
		c := in.Center(model.CenterID(ci))
		// With a ledger attached, the Sequential path routes through the
		// scan-observer hook so phase-1 deadline rejections are recorded per
		// center (recorders write disjoint slots — safe under the fan-out).
		assignC := func() assign.Result {
			if prov != nil && cfg.Method.Assigner == Seq {
				return assign.SequentialOpt(in, c, c.Workers, c.Tasks,
					assign.Options{Scan: prov.ScanRecorder(model.CenterID(ci))})
			}
			return assigner(in, c, c.Workers, c.Tasks)
		}
		ct0 := time.Now()
		if tr == nil {
			phase1[ci] = assignC()
			mCenterSeconds.ObserveDuration(time.Since(ct0))
			return
		}
		cs := tr.Start(p1TS.ID(), "phase1_center", obs.F("center", ci))
		r := assignC()
		mCenterSeconds.ObserveDuration(time.Since(ct0))
		cs.End(
			obs.F("assigned", r.AssignedCount()),
			obs.F("left_workers", len(r.LeftWorkers)),
			obs.F("left_tasks", len(r.LeftTasks)))
		phase1[ci] = r
	}
	fanout.Each(len(in.Centers), runCenter)
	phase1Time := time.Since(t0)
	mPhase1Seconds.ObserveDuration(phase1Time)
	if tr != nil {
		p1TS.End(obs.F("centers", len(in.Centers)))
	}

	rep := &Report{Method: cfg.Method, Phase1Time: phase1Time}
	p1sol := collab.NoCollaboration(in, phase1)
	rep.Phase1Assigned = p1sol.AssignedCount()
	rep.Phase1Ratios = metrics.Ratios(in, p1sol)
	rep.Phase1Unfairness = metrics.Unfairness(rep.Phase1Ratios)
	if prov != nil {
		prov.RecordPhase1(in, phase1, rep.Phase1Ratios)
	}
	if obs.Enabled(o) {
		for ci := range phase1 {
			r := &phase1[ci]
			o.Event("phase1_center",
				obs.F("center", ci),
				obs.F("assigned", r.AssignedCount()),
				obs.F("left_workers", len(r.LeftWorkers)),
				obs.F("left_tasks", len(r.LeftTasks)),
				obs.F("rho", rep.Phase1Ratios[ci]),
				obs.F("tasks_scanned", r.Stats.TasksScanned),
				obs.F("deadline_rejections", r.Stats.DeadlineRejections),
				obs.F("route_extensions", r.Stats.RouteExtensions))
		}
		o.Event("phase1",
			obs.F("assigned", rep.Phase1Assigned),
			obs.F("unfairness", rep.Phase1Unfairness),
			obs.F("phi", metrics.Phi(rep.Phase1Ratios)),
			obs.F("duration_ms", obs.DurationMs(phase1Time)))
	}

	// Phase 2: inter-center workforce transfer.
	t1 := time.Now()
	var p2TS obs.TraceSpan
	if tr != nil {
		p2TS = tr.Start(runTS.ID(), "phase2", obs.F("collab", cfg.Method.Collab.String()))
	}
	switch cfg.Method.Collab {
	case WoC:
		rep.Solution = p1sol
	default:
		ccfg := collab.Config{
			Assigner:    assigner,
			Obs:         cfg.Observer,
			Tracer:      tr,
			TraceParent: p2TS.ID(),
		}
		switch cfg.Method.Collab {
		case RBDC:
			ccfg.Recipient = collab.RandomRecipient
			ccfg.Rng = rand.New(rand.NewSource(cfg.Seed))
		case DC:
			ccfg.Scope = collab.LeftoverOnly
		}
		// A shard count of 1 or less runs the unsharded game.
		out, srep := collab.RunSharded(in, phase1, collab.ShardConfig{
			Config: ccfg,
			Shards: cfg.Shards,
			Seed:   cfg.Seed,
			Ledger: prov,
		})
		rep.Solution = out.Solution
		rep.Trace = out.Trace
		rep.Iterations = out.Iterations
		if cfg.Shards > 1 || cfg.Shards == ShardAuto {
			rep.Shard = &srep
		}
	}
	rep.Phase2Time = time.Since(t1)
	mPhase2Seconds.ObserveDuration(rep.Phase2Time)
	if tr != nil {
		p2TS.End(
			obs.F("iterations", rep.Iterations),
			obs.F("transfers", len(rep.Solution.Transfers)))
	}

	rep.Assigned = rep.Solution.AssignedCount()
	rep.Ratios = metrics.Ratios(in, rep.Solution)
	rep.Unfairness = metrics.Unfairness(rep.Ratios)
	rep.Transfers = len(rep.Solution.Transfers)
	if prov != nil {
		// Final sections and the certificate build OUTSIDE the phase timers:
		// provenance-on Phase2Time stays comparable to a plain run, and the
		// certificate's candidate sweep is an offline re-validation aid, not
		// engine work.
		if s := rep.Shard; s != nil {
			prov.RecordShard(provenance.ShardInfo{
				Shards:            s.Shards,
				ShardOf:           s.ShardOf,
				ExchangeIters:     s.ExchangeIterations,
				ExchangeTransfers: s.ExchangeTransfers,
			})
		}
		prov.RecordFinal(in, rep.Solution, rep.Unfairness)
		// The certificate's exact sweep accelerations are proven for the
		// Sequential assigner only; Opt runs (and w/o-C, which plays no
		// game) ship without one.
		if cfg.Method.Assigner == Seq && cfg.Method.Collab != WoC {
			prov.Cert = provenance.BuildCertificate(in, rep.Solution, prov.Meta.Scope)
		}
		rep.Provenance = prov
	}
	if obs.Enabled(o) {
		o.Event("phase2",
			obs.F("iterations", rep.Iterations),
			obs.F("transfers", rep.Transfers),
			obs.F("assigned", rep.Assigned),
			obs.F("unfairness", rep.Unfairness),
			obs.F("phi", metrics.Phi(rep.Ratios)),
			obs.F("duration_ms", obs.DurationMs(rep.Phase2Time)))
	}
	if obs.Enabled(o) {
		o.Event("run_end",
			obs.F("method", cfg.Method.String()),
			obs.F("assigned", rep.Assigned),
			obs.F("unfairness", rep.Unfairness),
			obs.F("transfers", rep.Transfers),
			obs.F("iterations", rep.Iterations),
			obs.F("duration_ms", obs.DurationMs(time.Since(runStart))))
	}
	if tr != nil {
		runTS.End(
			obs.F("assigned", rep.Assigned),
			obs.F("unfairness", rep.Unfairness),
			obs.F("transfers", rep.Transfers),
			obs.F("iterations", rep.Iterations))
	}
	return rep, nil
}
