// Determinism contract of the engine: for any fixed seed, a run at
// GOMAXPROCS 1 and one at GOMAXPROCS 8 produce bit-identical Reports —
// same routes, transfers, trace, and metrics — for every method, budgeted
// Opt included. Phase 1 writes per-center results to fixed slots and phase
// 2 selects the best-response winner by a serial scan over the trial slots,
// so scheduling order can never leak into the output. The tests here switch
// the process-wide GOMAXPROCS, so none of them calls t.Parallel.
package imtao

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"imtao/internal/collab"
	"imtao/internal/obs"
)

// optTestBudget is the Opt search budget, in steps, of the determinism
// tests at the Table I defaults: it binds there (budgetProbe counts where),
// and keeps an Opt run near a tenth of a second.
const optTestBudget = 5000

// budgetProbe counts the phase1_center events whose enumeration spent its
// whole half of an Opt budget of 2·half steps: each extension tried is one
// step and one scanned task, so a center that scanned exactly half tasks
// ran out of enumeration budget.
type budgetProbe struct{ half, capped int }

func (p *budgetProbe) Event(name string, fields ...obs.Field) {
	if name != "phase1_center" {
		return
	}
	for _, f := range fields {
		if f.Key == "tasks_scanned" && f.Value == any(p.half) {
			p.capped++
		}
	}
}

// atProcs runs f at GOMAXPROCS n, then restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// runPair runs m with seed 1 and opts at GOMAXPROCS 1 and at procs.
func runPair(t *testing.T, in *Instance, m Method, procs int, opts ...RunOption) (*Report, *Report) {
	t.Helper()
	opts = append([]RunOption{WithSeed(1)}, opts...)
	var serial, parallel *Report
	var serr, perr error
	atProcs(1, func() { serial, serr = Run(in, m, opts...) })
	atProcs(procs, func() { parallel, perr = Run(in, m, opts...) })
	if serr != nil || perr != nil {
		t.Fatal(serr, perr)
	}
	return serial, parallel
}

func assertReportsIdentical(t *testing.T, serial, parallel *Report) {
	t.Helper()
	if serial.Assigned != parallel.Assigned {
		t.Errorf("Assigned: serial %d, parallel %d", serial.Assigned, parallel.Assigned)
	}
	if serial.Phase1Assigned != parallel.Phase1Assigned {
		t.Errorf("Phase1Assigned: serial %d, parallel %d", serial.Phase1Assigned, parallel.Phase1Assigned)
	}
	if serial.Unfairness != parallel.Unfairness {
		t.Errorf("Unfairness: serial %v, parallel %v", serial.Unfairness, parallel.Unfairness)
	}
	if serial.Transfers != parallel.Transfers {
		t.Errorf("Transfers: serial %d, parallel %d", serial.Transfers, parallel.Transfers)
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("Iterations: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
	}
	if !reflect.DeepEqual(serial.Ratios, parallel.Ratios) {
		t.Errorf("Ratios differ:\nserial   %v\nparallel %v", serial.Ratios, parallel.Ratios)
	}
	if !reflect.DeepEqual(serial.Solution.Transfers, parallel.Solution.Transfers) {
		t.Errorf("transfer lists differ:\nserial   %v\nparallel %v",
			serial.Solution.Transfers, parallel.Solution.Transfers)
	}
	for ci := range serial.Solution.PerCenter {
		s, p := serial.Solution.PerCenter[ci].Routes, parallel.Solution.PerCenter[ci].Routes
		if !reflect.DeepEqual(s, p) {
			t.Errorf("center %d routes differ:\nserial   %v\nparallel %v", ci, s, p)
		}
	}
	// Per-iteration wall clock is the one trace field outside the
	// determinism contract; everything else must match bit for bit.
	st := append([]collab.TraceStep(nil), serial.Trace...)
	pt := append([]collab.TraceStep(nil), parallel.Trace...)
	for i := range st {
		st[i].Duration = 0
	}
	for i := range pt {
		pt[i].Duration = 0
	}
	if !reflect.DeepEqual(st, pt) {
		t.Errorf("game traces differ (%d vs %d steps)", len(serial.Trace), len(parallel.Trace))
	}
}

// TestParallelMatchesSerial covers all eight method presets on both
// datasets at the paper's Table I defaults; the Opt methods run at
// optTestBudget, which must bind in some center.
func TestParallelMatchesSerial(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		raw, err := Generate(DefaultParams(d))
		if err != nil {
			t.Fatal(err)
		}
		in, err := Partition(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods() {
			t.Run(fmt.Sprintf("%s/%s", d, m), func(t *testing.T) {
				var opts []RunOption
				probe := &budgetProbe{half: optTestBudget / 2}
				if m.Assigner == OptBDC.Assigner {
					opts = append(opts, WithOptBudget(optTestBudget), WithObserver(probe))
				}
				serial, parallel := runPair(t, in, m, 8, opts...)
				assertReportsIdentical(t, serial, parallel)
				if len(opts) > 0 && probe.capped == 0 {
					t.Fatalf("the %d-step budget bound in no center", optTestBudget)
				}
			})
		}
	}
}

// TestParallelDefaultMatchesSerial pins the process's default GOMAXPROCS
// to the serial run on the proposed method.
func TestParallelDefaultMatchesSerial(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		raw, err := Generate(DefaultParams(d))
		if err != nil {
			t.Fatal(err)
		}
		in, err := Partition(raw)
		if err != nil {
			t.Fatal(err)
		}
		serial, def := runPair(t, in, SeqBDC, runtime.GOMAXPROCS(0))
		assertReportsIdentical(t, serial, def)
	}
}

// The first Run on a fresh instance fans phase 1 out before anything else
// has touched the instance's lazily built hot slab, so the fan-out must find
// the slab already built. Under -race (as CI runs it) this catches the
// phase-1 assigners building it concurrently; it also checks the parallel
// first run against a serial first run on an identical fresh instance.
func TestParallelFirstRunOnFreshInstance(t *testing.T) {
	fresh := func() *Instance {
		raw, err := Generate(DefaultParams(SYN))
		if err != nil {
			t.Fatal(err)
		}
		in, err := Partition(raw)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for _, m := range []Method{SeqWoC, SeqBDC} {
		var parallel, serial *Report
		var perr, serr error
		atProcs(4, func() { parallel, perr = Run(fresh(), m, WithSeed(1)) })
		atProcs(1, func() { serial, serr = Run(fresh(), m, WithSeed(1)) })
		if perr != nil || serr != nil {
			t.Fatal(perr, serr)
		}
		assertReportsIdentical(t, serial, parallel)
	}
}

// TestParallelismEngineWorkIdentical: the engine's work on a road-network
// solve does not depend on GOMAXPROCS. Every game plays its trials on
// the goroutine that steps it, and concurrent shard games fill the memo
// slots of disjoint centers, so the road point searches and the trial
// travel-memo hits and misses match at 1 and 4, unsharded and under
// WithShards(3).
func TestParallelismEngineWorkIdentical(t *testing.T) {
	hits := obs.Default.Counter("imtao_trial_travel_memo_hits_total", "")
	misses := obs.Default.Counter("imtao_trial_travel_memo_misses_total", "")
	for _, shards := range []int{1, 3} {
		var work [2][3]int64 // point searches, memo hits, memo misses
		for i, procs := range []int{1, 4} {
			in := perfbenchInstance(t, 1, 0)
			net := in.Metric.(*RoadNetwork)
			s0, h0, m0 := net.Stats().PointSearches, hits.Value(), misses.Value()
			var err error
			atProcs(procs, func() { _, err = Run(in, SeqBDC, WithShards(shards)) })
			if err != nil {
				t.Fatal(err)
			}
			work[i] = [3]int64{net.Stats().PointSearches - s0, hits.Value() - h0, misses.Value() - m0}
		}
		if work[0] != work[1] {
			t.Errorf("shards %d: (point searches, memo hits, memo misses) %v at GOMAXPROCS 1, %v at 4",
				shards, work[0], work[1])
		}
		if work[0][1] == 0 || work[0][2] == 0 {
			t.Errorf("shards %d: work %v — the trial memo was never used", shards, work[0])
		}
	}
}
