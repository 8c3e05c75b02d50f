package core

import (
	"testing"

	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/routing"
	"imtao/internal/workload"
)

func defaultInstance(t *testing.T, d workload.Dataset, seed int64) *model.Instance {
	t.Helper()
	p := workload.Defaults(d)
	p.NumTasks, p.NumWorkers, p.NumCenters = 120, 30, 6
	p.Seed = seed
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestMethodsAndParse(t *testing.T) {
	ms := Methods()
	if len(ms) != 8 {
		t.Fatalf("expected 8 methods, got %d", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.String()] = true
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, want := range []string{"Seq-BDC", "Seq-RBDC", "Seq-DC", "Seq-w/o-C", "Opt-BDC", "Opt-RBDC", "Opt-DC", "Opt-w/o-C"} {
		if !names[want] {
			t.Errorf("missing method %q", want)
		}
	}
	if _, err := ParseMethod("seq-bdc"); err != nil {
		t.Error("parse must be case-insensitive")
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method must error")
	}
}

func TestPartitionAttachesEverything(t *testing.T) {
	p := workload.Defaults(workload.SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 100, 25, 7
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, diagram, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if diagram == nil || len(diagram.Cells()) != 7 {
		t.Fatal("diagram missing")
	}
	totalT, totalW := 0, 0
	for _, c := range in.Centers {
		totalT += len(c.Tasks)
		totalW += len(c.Workers)
	}
	if totalT != 100 || totalW != 25 {
		t.Fatalf("partition lost entities: %d tasks, %d workers", totalT, totalW)
	}
	// Nearest-center property.
	for _, task := range in.Tasks {
		for _, c := range in.Centers {
			if task.Loc.Dist2(c.Loc) < task.Loc.Dist2(in.Centers[task.Center].Loc)-1e-9 {
				t.Fatalf("task %d not attached to nearest center", task.ID)
			}
		}
	}
	// Original untouched.
	if raw.Tasks[0].Center != model.NoCenter {
		t.Fatal("Partition mutated its input")
	}
}

func TestRunRequiresPartition(t *testing.T) {
	p := workload.Defaults(workload.SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 10, 5, 2
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(raw, Config{}); err == nil {
		t.Fatal("unpartitioned instance must be rejected")
	}
}

func TestRunSeqMethodsEndToEnd(t *testing.T) {
	in := defaultInstance(t, workload.SYN, 3)
	var woc, bdc, dc *Report
	for _, m := range []Method{{Seq, WoC}, {Seq, BDC}, {Seq, DC}, {Seq, RBDC}} {
		rep, err := Run(in, Config{Method: m, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := routing.SolutionFeasible(in, rep.Solution); err != nil {
			t.Fatalf("%v: infeasible solution: %v", m, err)
		}
		if rep.Assigned != rep.Solution.AssignedCount() {
			t.Fatalf("%v: report count mismatch", m)
		}
		if got := metrics.Unfairness(rep.Ratios); got != rep.Unfairness {
			t.Fatalf("%v: unfairness mismatch", m)
		}
		switch m.Collab {
		case WoC:
			woc = rep
		case BDC:
			bdc = rep
		case DC:
			dc = rep
		}
	}
	if bdc.Assigned < woc.Assigned {
		t.Fatalf("BDC %d < w/o-C %d", bdc.Assigned, woc.Assigned)
	}
	if dc.Assigned < woc.Assigned {
		t.Fatalf("DC %d < w/o-C %d", dc.Assigned, woc.Assigned)
	}
	if woc.Transfers != 0 {
		t.Fatal("w/o-C must not transfer workers")
	}
	if bdc.Phase1Assigned != woc.Assigned {
		t.Fatalf("phase-1 count %d should equal w/o-C %d", bdc.Phase1Assigned, woc.Assigned)
	}
}

func TestRunOptSmall(t *testing.T) {
	p := workload.Defaults(workload.SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 40, 12, 4
	p.Seed = 9
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(in, Config{Method: Method{Seq, WoC}})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(in, Config{Method: Method{Opt, WoC}, OptBudget: 2000000})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Assigned < seq.Assigned {
		t.Fatalf("Opt %d < Seq %d", opt.Assigned, seq.Assigned)
	}
	if err := routing.SolutionFeasible(in, opt.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	in := defaultInstance(t, workload.GM, 4)
	a, err := Run(in, Config{Method: Method{Seq, RBDC}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, Config{Method: Method{Seq, RBDC}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Assigned != b.Assigned || a.Unfairness != b.Unfairness || a.Transfers != b.Transfers {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestRunTraceMatchesTransfers(t *testing.T) {
	in := defaultInstance(t, workload.GM, 8)
	rep, err := Run(in, Config{Method: Method{Seq, BDC}})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, s := range rep.Trace {
		if s.Accepted {
			accepted++
		}
	}
	if accepted != rep.Transfers {
		t.Fatalf("accepted steps %d != transfers %d", accepted, rep.Transfers)
	}
	if rep.Iterations < len(rep.Trace) {
		t.Fatalf("iterations %d < trace length %d", rep.Iterations, len(rep.Trace))
	}
}

func TestKindStrings(t *testing.T) {
	if Seq.String() != "Seq" || Opt.String() != "Opt" {
		t.Error("AssignerKind strings")
	}
	if BDC.String() != "BDC" || RBDC.String() != "RBDC" || DC.String() != "DC" || WoC.String() != "w/o-C" {
		t.Error("CollabKind strings")
	}
}

func TestRunOptBDCSmall(t *testing.T) {
	p := workload.Defaults(workload.SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 30, 10, 3
	p.Seed = 12
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	woc, err := Run(in, Config{Method: Method{Opt, WoC}, OptBudget: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	bdc, err := Run(in, Config{Method: Method{Opt, BDC}, OptBudget: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.SolutionFeasible(in, bdc.Solution); err != nil {
		t.Fatal(err)
	}
	if bdc.Assigned < woc.Assigned {
		t.Fatalf("Opt-BDC %d < Opt-w/o-C %d", bdc.Assigned, woc.Assigned)
	}
}
