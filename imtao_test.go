package imtao

import (
	"testing"
)

func TestSolveQuickstart(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 100, 30, 5
	rep, err := Solve(p, SeqBDC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assigned <= 0 || rep.Assigned > 100 {
		t.Fatalf("assigned = %d", rep.Assigned)
	}
	if rep.Unfairness < 0 || rep.Unfairness > 1 {
		t.Fatalf("unfairness = %v", rep.Unfairness)
	}
	if len(rep.Ratios) != 5 {
		t.Fatalf("ratios = %v", rep.Ratios)
	}
}

func TestMethodPresets(t *testing.T) {
	if SeqBDC.String() != "Seq-BDC" || OptWoC.String() != "Opt-w/o-C" {
		t.Error("preset names wrong")
	}
	if len(Methods()) != 8 {
		t.Error("Methods() must list 8 presets")
	}
	m, err := ParseMethod("Opt-DC")
	if err != nil || m != OptDC {
		t.Errorf("ParseMethod = %v, %v", m, err)
	}
}

func TestGeneratePartitionRun(t *testing.T) {
	p := DefaultParams(GM)
	p.NumTasks, p.NumWorkers, p.NumCenters = 60, 20, 4
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(in, SeqWoC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 0 {
		t.Error("w/o-C must not transfer")
	}
	rep2, err := Run(in, SeqRBDC, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := Run(in, SeqRBDC, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Assigned != rep3.Assigned {
		t.Error("WithSeed must make RBDC reproducible")
	}
}

func TestRunWithOptBudget(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 40, 12, 4
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(in, OptWoC, WithOptBudget(50000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assigned <= 0 {
		t.Fatal("Opt with budget assigned nothing")
	}
}

func TestBuilderScenario(t *testing.T) {
	b := NewBuilder(1000, 1000, 100)
	c0 := b.AddCenter(250, 500)
	c1 := b.AddCenter(750, 500)
	w0 := b.AddWorker(240, 510, 4)
	b.AddWorker(260, 490, 4)
	t0 := b.AddTask(260, 520, 1.0, 1.0)
	b.AddTask(740, 480, 1.0, 1.0)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Tasks[t0].Center != c0 {
		t.Errorf("task 0 attached to center %d, want %d", in.Tasks[t0].Center, c0)
	}
	if in.Workers[w0].Home != c0 {
		t.Errorf("worker 0 attached to center %d, want %d", in.Workers[w0].Home, c0)
	}
	rep, err := Run(in, SeqBDC)
	if err != nil {
		t.Fatal(err)
	}
	// The only c1 task has no nearby worker; collaboration may dispatch one
	// of c0's two workers if it can arrive in time. Whatever the outcome,
	// the run must stay consistent.
	if rep.Assigned < 1 {
		t.Fatalf("assigned = %d", rep.Assigned)
	}
	_ = c1
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(0, 10, 5).Build(); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := NewBuilder(10, 10, 0).Build(); err == nil {
		t.Error("zero speed must fail")
	}
	if _, err := NewBuilder(10, 10, 5).Build(); err == nil {
		t.Error("no centers must fail")
	}
	b := NewBuilder(10, 10, 5)
	b.AddCenter(5, 5)
	b.AddTask(1, 1, -1, 1)
	if _, err := b.Build(); err == nil {
		t.Error("negative expiry must fail")
	}
	b2 := NewBuilder(10, 10, 5)
	b2.AddCenter(5, 5)
	b2.AddWorker(1, 1, -1)
	if _, err := b2.Build(); err == nil {
		t.Error("negative capacity must fail")
	}
}

func TestBuilderCollaborationScenario(t *testing.T) {
	// A concrete scenario where collaboration provably helps: c0 has a spare
	// worker, c1 has an extra task only a dispatched worker can take.
	b := NewBuilder(100, 100, 100) // fast couriers
	b.AddCenter(20, 50)
	b.AddCenter(80, 50)
	b.AddWorker(19, 50, 1)  // c0 worker
	b.AddWorker(21, 50, 1)  // c0 spare
	b.AddWorker(79, 50, 1)  // c1 worker
	b.AddTask(22, 52, 1, 1) // c0 task
	b.AddTask(78, 52, 1, 1) // c1 task
	b.AddTask(82, 48, 1, 1) // c1 task (needs a second worker)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	woc, err := Run(in, SeqWoC)
	if err != nil {
		t.Fatal(err)
	}
	bdc, err := Run(in, SeqBDC)
	if err != nil {
		t.Fatal(err)
	}
	if woc.Assigned != 2 {
		t.Fatalf("w/o-C assigned = %d, want 2", woc.Assigned)
	}
	if bdc.Assigned != 3 {
		t.Fatalf("BDC assigned = %d, want 3", bdc.Assigned)
	}
	if bdc.Transfers != 1 {
		t.Fatalf("transfers = %d, want 1", bdc.Transfers)
	}
	if bdc.Unfairness >= woc.Unfairness {
		t.Fatalf("unfairness %v should drop below %v", bdc.Unfairness, woc.Unfairness)
	}
}

func TestFacadeMetricsHelpers(t *testing.T) {
	if got := Unfairness([]float64{0, 1}); got != 1 {
		t.Errorf("Unfairness = %v", got)
	}
	if got := Gini([]float64{1, 1}); got != 0 {
		t.Errorf("Gini = %v", got)
	}
	if got := Jain([]float64{1, 1}); got != 1 {
		t.Errorf("Jain = %v", got)
	}
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 40, 12, 3
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(in, SeqBDC)
	if err != nil {
		t.Fatal(err)
	}
	u := ComputeUtilization(in, rep.Solution)
	if u.Workers != 12 || u.Active <= 0 || u.CapacityUsed <= 0 {
		t.Fatalf("utilization: %+v", u)
	}
}

func TestCompareMethods(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 80, 20, 4
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CompareMethods(in, nil, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	best, ok := Best(rows)
	if !ok {
		t.Fatal("no best row")
	}
	for _, r := range rows {
		if r.Assigned > best.Assigned {
			t.Fatalf("Best missed a better row: %v vs %v", r, best)
		}
		if r.Method == SeqWoC && r.Transfers != 0 {
			t.Fatal("w/o-C transferred workers")
		}
	}
	if _, ok := Best(nil); ok {
		t.Fatal("Best of empty must report !ok")
	}
}
