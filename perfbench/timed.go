package main

import (
	"fmt"
	"runtime"
	"time"

	"imtao"
	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/provenance"
	"imtao/internal/routing"
)

// The timed path uses only the public imtao API at the defaults the program
// ships with — default oracle cache, default parallelism — so refactors
// behind imtao.Run never change what it measures. Checks run outside every
// timer and may call into internal packages.

// solveSample is one timed solve, read from its Report and from counters
// sampled around the call.
type solveSample struct {
	wall, cpu, phase1, phase2 time.Duration
	searches, newSources      int64
	evictions                 int64
	allocBytes                uint64
	gcCycles                  uint32
	// Instrumentation volume of an audit solve.
	spans, spansDropped, jsonlBytes int64
	// Machine-wide CPU ticks during the solve, and the stolen part.
	stealTicks, hostTicks uint64
}

// setupResult is one fresh set-up: the time from generated inputs to the
// first solution, and that cold solution's checked outcome.
type setupResult struct {
	setup       time.Duration
	fingerprint uint64
	assigned    int
	unfairness  float64
	checkErr    error
}

// timedRun is the outcome of a run's set-ups and timed solves.
type timedRun struct {
	setups    []setupResult
	solves    []solveSample
	attempted int
	failed    int
	failures  []string
	// The last set-up's long-lived state, which the traced pass reuses.
	raw *imtao.Instance
	in  *imtao.Instance
	net *imtao.RoadNetwork
	// peakRSS is read after the timed solves, before any traced work.
	peakRSS float64
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// auditChannels are the fresh recording channels of one audit solve.
type auditChannels struct {
	ledger *imtao.Ledger
	tracer *imtao.Tracer
	jsonl  countingWriter
}

// runOptions returns the options of one solve, with fresh audit channels
// when the workload records them.
func (w spec) runOptions() ([]imtao.RunOption, *auditChannels) {
	var opts []imtao.RunOption
	if w.sharded {
		opts = append(opts, imtao.WithShards(0))
	}
	if !w.audit {
		return opts, nil
	}
	ch := &auditChannels{ledger: imtao.NewLedger(), tracer: imtao.NewTracer(0)}
	opts = append(opts, imtao.WithProvenance(ch.ledger), imtao.WithTracer(ch.tracer),
		imtao.WithTrace(&ch.jsonl))
	return opts, ch
}

// checkSolution runs the full output check on a cold solve. It works on a
// copy of the instance bound to a separate check network (nil for
// straight-line workloads), so the checks' shortest-path searches never
// touch the oracle cache the timed solves carry over.
func (w spec) checkSolution(in *imtao.Instance, checkNet *imtao.RoadNetwork, rep *imtao.Report, audit *auditChannels) error {
	chk := *in
	if checkNet != nil {
		chk.Metric = checkNet
	}
	sol := rep.Solution
	// SolutionFeasible runs Solution.CheckConsistency before the per-route
	// deadline and capacity checks.
	if err := routing.SolutionFeasible(&chk, sol); err != nil {
		return fmt.Errorf("infeasible solution: %w", err)
	}
	if got := sol.AssignedCount(); got != rep.Assigned {
		return fmt.Errorf("report says %d assigned, solution has %d", rep.Assigned, got)
	}
	if got := imtao.Unfairness(rep.Ratios); got != rep.Unfairness {
		return fmt.Errorf("report U_ρ %v, ratios give %v", rep.Unfairness, got)
	}
	if w.method.Collab != imtao.SeqWoC.Collab {
		if err := collab.VerifyEquilibrium(&chk, sol, assign.Sequential); err != nil {
			return fmt.Errorf("not an equilibrium: %w", err)
		}
	}
	if audit != nil {
		rr, err := provenance.Replay(audit.ledger)
		if err != nil {
			return fmt.Errorf("ledger replay: %w", err)
		}
		if provenance.SolutionFingerprint(rr.Solution) != provenance.SolutionFingerprint(sol) {
			return fmt.Errorf("ledger replays to a different solution")
		}
		cert := audit.ledger.Cert
		if cert == nil {
			return fmt.Errorf("ledger has no equilibrium certificate")
		}
		if err := cert.Verify(&chk, sol); err != nil {
			return fmt.Errorf("certificate: %w", err)
		}
	}
	return nil
}

// runTimed makes the run's fresh set-ups, checks each cold solve, and after
// each set-up makes perSetup timed solves of the same instance on the same
// network, back to back from one caller (a closed loop, one client).
func (w spec) runTimed(seed int64, perSetup int) (*timedRun, error) {
	base, err := w.baseInstance()
	if err != nil {
		return nil, err
	}
	// The check network pins the center tables as imtao.Run pins them on
	// the solve network: which endpoint's table answers a query depends on
	// the pinned set, and the two directions of a road distance can differ
	// in the last bit, so an unpinned check network could judge a
	// knife-edge deadline differently from the solver. Centers are the
	// same in every perturbed instance.
	var checkNet *imtao.RoadNetwork
	if w.grid > 0 {
		if checkNet, err = imtao.NewRoadNetwork(base.Bounds, w.grid, w.grid, base.Speed); err != nil {
			return nil, err
		}
		checkNet.PrecomputeSources(centerLocs(base))
	}
	tr := &timedRun{}
	fail := func(format string, args ...any) {
		tr.failed++
		tr.failures = append(tr.failures, fmt.Sprintf(format, args...))
	}
	for k := 0; k < w.setups; k++ {
		raw := perturb(base, seed, k)
		// Drop the previous set-up first, so only one instance and its
		// network are alive at a time.
		tr.raw, tr.in, tr.net = nil, nil, nil
		runtime.GC()

		opts, audit := w.runOptions()
		t0 := time.Now()
		net, err := w.network(raw)
		if err != nil {
			return nil, err
		}
		in, err := imtao.Partition(raw)
		if err != nil {
			return nil, err
		}
		rep, runErr := imtao.Run(in, w.method, opts...)
		setup := time.Since(t0)

		tr.attempted++
		sr := setupResult{setup: setup}
		if runErr != nil {
			sr.checkErr = runErr
		} else {
			sr.fingerprint = provenance.SolutionFingerprint(rep.Solution)
			sr.assigned, sr.unfairness = rep.Assigned, rep.Unfairness
			sr.checkErr = w.checkSolution(in, checkNet, rep, audit)
		}
		if sr.checkErr != nil {
			fail("set-up %d cold solve: %v", k, sr.checkErr)
		}
		tr.setups = append(tr.setups, sr)
		tr.raw, tr.in, tr.net = raw, in, net

		for i := 0; i < perSetup; i++ {
			s, fp, err := w.timedSolve(in, net)
			tr.attempted++
			switch {
			case err != nil:
				fail("set-up %d solve %d: %v", k, i, err)
			case sr.checkErr != nil:
				fail("set-up %d solve %d: repeats a cold solve that failed its check", k, i)
			case fp != sr.fingerprint:
				fail("set-up %d solve %d: fingerprint %016x, cold solve %016x", k, i, fp, sr.fingerprint)
			}
			tr.solves = append(tr.solves, s)
		}
	}
	tr.peakRSS = peakRSSMiB()
	return tr, nil
}

// timedSolve makes one timed imtao.Run and samples the counters around it.
// Everything but the Run call itself stays outside the wall and CPU timers.
func (w spec) timedSolve(in *imtao.Instance, net *imtao.RoadNetwork) (solveSample, uint64, error) {
	opts, audit := w.runOptions()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runs0, new0, ev0 := oracleCounters(net)
	steal0, ticks0 := hostTicks()
	c0 := cpuTime()
	t0 := time.Now()
	rep, err := imtao.Run(in, w.method, opts...)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	steal1, ticks1 := hostTicks()
	runtime.ReadMemStats(&ms1)

	s := solveSample{
		wall:       wall,
		cpu:        cpu,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   ms1.NumGC - ms0.NumGC,
		stealTicks: steal1 - steal0,
		hostTicks:  ticks1 - ticks0,
	}
	runs1, new1, ev1 := oracleCounters(net)
	s.searches, s.newSources, s.evictions = runs1-runs0, new1-new0, ev1-ev0
	if audit != nil {
		s.spans = int64(audit.tracer.Len())
		s.spansDropped = audit.tracer.Dropped()
		s.jsonlBytes = audit.jsonl.n
	}
	if err != nil {
		return s, 0, err
	}
	s.phase1, s.phase2 = rep.Phase1Time, rep.Phase2Time
	return s, provenance.SolutionFingerprint(rep.Solution), nil
}

// oracleCounters returns a road network's cumulative search, distinct-source
// and eviction counts; zeros for a straight-line workload.
func oracleCounters(net *imtao.RoadNetwork) (searches, sources, evictions int64) {
	if net == nil {
		return 0, 0, 0
	}
	st := net.Stats()
	return st.DijkstraRuns, st.UniqueSources, st.Evictions
}

// centerLocs returns the center locations, the sources imtao.Run pins.
func centerLocs(in *imtao.Instance) []imtao.Point {
	locs := make([]imtao.Point, len(in.Centers))
	for i := range in.Centers {
		locs[i] = in.Centers[i].Loc
	}
	return locs
}

// stealShare is the share of the machine's CPU time the hypervisor took
// away while the timed solves ran; 0 where the host does not report it.
func (tr *timedRun) stealShare() float64 {
	var steal, total uint64
	for _, s := range tr.solves {
		steal += s.stealTicks
		total += s.hostTicks
	}
	if total == 0 {
		return 0
	}
	return float64(steal) / float64(total)
}
