// Determinism contract of the parallel engine: for any fixed seed and any
// deterministic assigner, WithParallelism(N) and WithParallelism(1) must
// produce bit-identical Reports — same routes, transfers, trace, and
// metrics. Phase 1 writes per-center results to fixed slots and phase 2
// selects the best-response winner by a serial scan over the trial slots,
// so scheduling order can never leak into the output.
package imtao

import (
	"fmt"
	"reflect"
	"testing"

	"imtao/internal/collab"
	"imtao/internal/obs"
)

// reducedParams shrinks a dataset to a size where the exact Opt assigner
// (zero time budget, hence deterministic) finishes quickly — its VTDS
// enumeration is exponential in tasks-per-worker, so both the counts and
// the capacity must stay small.
func reducedParams(p *Params) {
	p.NumTasks, p.NumWorkers, p.NumCenters = 40, 10, 4
	p.MaxT = 2
}

func runPair(t *testing.T, in *Instance, m Method, par int) (*Report, *Report) {
	t.Helper()
	serial, err := Run(in, m, WithSeed(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(in, m, WithSeed(1), WithParallelism(par))
	if err != nil {
		t.Fatal(err)
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
// datasets. Seq methods run at the paper's Table I defaults; Opt methods run
// exact (zero budget) on a reduced instance, since a time-budgeted Opt is
// wall-clock dependent and outside the determinism contract.
func TestParallelMatchesSerial(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		for _, m := range Methods() {
			m := m
			t.Run(fmt.Sprintf("%s/%s", d, m), func(t *testing.T) {
				t.Parallel()
				p := DefaultParams(d)
				if m.Assigner == OptBDC.Assigner {
					reducedParams(&p)
				}
				raw, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				in, err := Partition(raw)
				if err != nil {
					t.Fatal(err)
				}
				serial, parallel := runPair(t, in, m, 8)
				assertReportsIdentical(t, serial, parallel)
			})
		}
	}
}

// TestParallelDefaultMatchesSerial pins the default (Parallelism 0 =
// GOMAXPROCS) to the serial reference on the proposed method.
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
		serial, err := Run(in, SeqBDC, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		def, err := Run(in, SeqBDC)
		if err != nil {
			t.Fatal(err)
		}
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
		parallel, err := Run(fresh(), m, WithSeed(1), WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Run(fresh(), m, WithSeed(1), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, serial, parallel)
	}
}

// TestParallelismEngineWorkIdentical: the engine's work on a road-network
// solve does not depend on WithParallelism. Every game plays its trials on
// the goroutine that steps it, and concurrent shard games fill the memo
// slots of disjoint centers, so the road point searches and the trial
// travel-memo hits and misses match at 1 and 4, unsharded and under
// WithShards(3).
func TestParallelismEngineWorkIdentical(t *testing.T) {
	hits := obs.Default.Counter("imtao_trial_travel_memo_hits_total", "")
	misses := obs.Default.Counter("imtao_trial_travel_memo_misses_total", "")
	for _, shards := range []int{1, 3} {
		var work [2][3]int64 // point searches, memo hits, memo misses
		for i, par := range []int{1, 4} {
			in := perfbenchInstance(t, 1, 0)
			net := in.Metric.(*RoadNetwork)
			s0, h0, m0 := net.Stats().PointSearches, hits.Value(), misses.Value()
			if _, err := Run(in, SeqBDC, WithParallelism(par), WithShards(shards)); err != nil {
				t.Fatal(err)
			}
			work[i] = [3]int64{net.Stats().PointSearches - s0, hits.Value() - h0, misses.Value() - m0}
		}
		if work[0] != work[1] {
			t.Errorf("shards %d: (point searches, memo hits, memo misses) %v at parallelism 1, %v at 4",
				shards, work[0], work[1])
		}
		if work[0][1] == 0 || work[0][2] == 0 {
			t.Errorf("shards %d: work %v — the trial memo was never used", shards, work[0])
		}
	}
}
