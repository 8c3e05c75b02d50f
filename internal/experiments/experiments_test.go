package experiments

import (
	"bytes"
	"strings"
	"testing"

	"imtao/internal/core"
	"imtao/internal/workload"
)

func TestRegistryCoversAllFigures(t *testing.T) {
	reg := Registry()
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if len(reg[i].SweepValues) != 5 {
			t.Errorf("%s sweeps %d values, paper uses 5", id, len(reg[i].SweepValues))
		}
		if reg[i].Apply == nil {
			t.Errorf("%s has no Apply", id)
		}
	}
	// Sweep values match Table I.
	if e, _ := Lookup("fig5"); e.SweepValues[0] != 80 || e.SweepValues[4] != 120 {
		t.Error("fig5 worker sweep mismatch with Table I (GM)")
	}
	if e, _ := Lookup("fig6"); e.SweepValues[0] != 100 || e.SweepValues[4] != 200 {
		t.Error("fig6 worker sweep mismatch with Table I (SYN)")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup must fail for unknown id")
	}
}

// smallExperiment shrinks an experiment so the sweep finishes quickly while
// keeping its structure.
func smallExperiment(id string) Experiment {
	e, _ := Lookup(id)
	e.SweepValues = e.SweepValues[:2]
	orig := e.Apply
	e.Apply = func(p *workload.Params, v float64) {
		p.NumTasks = 80
		p.NumWorkers = 20
		p.NumCenters = 5
		orig(p, v)
		// Scale the swept dimension down except expiry.
		switch e.SweepName {
		case "|S|":
			p.NumTasks = int(v / 5)
		case "|W|":
			p.NumWorkers = int(v / 5)
		case "|C|":
			p.NumCenters = int(v / 4)
		}
	}
	return e
}

func TestRunProducesCompleteCells(t *testing.T) {
	e := smallExperiment("fig3")
	res, err := Run(e, Options{Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 4 {
		t.Fatalf("default methods = %d, want 4 Seq methods", len(res.Methods))
	}
	for _, m := range res.Methods {
		cells := res.Cells[m.String()]
		if len(cells) != len(e.SweepValues) {
			t.Fatalf("%s has %d cells", m, len(cells))
		}
		for i, c := range cells {
			if c.Assigned.N != 2 {
				t.Fatalf("%s cell %d aggregated %d seeds", m, i, c.Assigned.N)
			}
			if c.Assigned.Mean <= 0 {
				t.Fatalf("%s cell %d assigned nothing", m, i)
			}
			if c.CPUSeconds.Mean < 0 {
				t.Fatalf("%s cell %d negative time", m, i)
			}
		}
	}
}

func TestRunShapeBDCBeatsWoC(t *testing.T) {
	e := smallExperiment("fig4")
	res, err := Run(e, Options{Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range e.SweepValues {
		bdc := res.Cells["Seq-BDC"][vi].Assigned.Mean
		woc := res.Cells["Seq-w/o-C"][vi].Assigned.Mean
		if bdc < woc {
			t.Errorf("sweep %d: Seq-BDC %.1f < Seq-w/o-C %.1f", vi, bdc, woc)
		}
	}
}

func TestTableAndPlotsRender(t *testing.T) {
	e := smallExperiment("fig3")
	res, err := Run(e, Options{Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"Fig. 3", "assigned tasks", "unfairness", "CPU", "Seq-BDC", "Seq-w/o-C"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	plots := res.Plots()
	if !strings.Contains(plots, "Seq-BDC") || !strings.Contains(plots, "+---") {
		t.Errorf("plots look wrong:\n%s", plots)
	}
}

func TestConvergenceTraceShape(t *testing.T) {
	// Shrunken Fig. 11: run at full defaults is slow for a unit test, so we
	// call the underlying pieces with a smaller |C| through the public entry
	// point after checking it accepts the paper's parameters. Here we verify
	// the monotone shape the paper reports.
	res, err := Convergence(workload.SYN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Fatalf("convergence trace too short: %d points", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Assigned < res.Points[i-1].Assigned {
			t.Fatalf("assigned decreased at point %d", i)
		}
	}
	// Unfairness at the end should not exceed the starting unfairness.
	if res.Points[len(res.Points)-1].Unfairness > res.Points[0].Unfairness+1e-9 {
		t.Errorf("unfairness did not improve: %v -> %v",
			res.Points[0].Unfairness, res.Points[len(res.Points)-1].Unfairness)
	}
	out := res.Render()
	if !strings.Contains(out, "Fig. 11") || !strings.Contains(out, "iteration") {
		t.Errorf("render missing headers:\n%s", out)
	}
}

func TestTableI(t *testing.T) {
	out := TableI()
	for _, want := range []string{"Table I", "|S|", "|W|", "|C|", "Expiration", "maxT"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestCPUSplit(t *testing.T) {
	e := smallExperiment("fig3")
	res, err := Run(e, Options{Seeds: []int64{1}, OptBudget: 200000, Methods: []core.Method{
		{Assigner: core.Seq, Collab: core.WoC},
		{Assigner: core.Opt, Collab: core.WoC},
	}})
	if err != nil {
		t.Fatal(err)
	}
	seqMean, optMean, haveOpt := res.CPUSplit()
	if !haveOpt {
		t.Fatal("Opt method ran but CPUSplit reports none")
	}
	if seqMean <= 0 || optMean <= 0 {
		t.Fatalf("means: seq=%v opt=%v", seqMean, optMean)
	}
	if optMean < seqMean {
		t.Errorf("Opt (%v) should cost more CPU than Seq (%v)", optMean, seqMean)
	}
}

// TestZeroOptBudgetRunsExactOpt: Options.OptBudget reaches core.Run as
// given, so zero runs the exact Opt rather than a default budget, and a
// budget that binds changes the cell. The instance is small enough for the
// exact search, so the zero-budget default is also checked directly.
func TestZeroOptBudgetRunsExactOpt(t *testing.T) {
	var o Options
	if o.fill(); o.OptBudget != 0 {
		t.Fatalf("Options defaults the Opt budget to %d, want 0 (exact)", o.OptBudget)
	}
	e, _ := Lookup("fig3")
	e.SweepValues = e.SweepValues[:1]
	e.Apply = func(p *workload.Params, _ float64) {
		p.NumTasks, p.NumWorkers, p.NumCenters, p.MaxT = 40, 10, 4, 2
	}
	p := workload.Defaults(e.Dataset)
	p.Seed = 1
	e.Apply(&p, e.SweepValues[0])
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := core.Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	optWoC := core.Method{Assigner: core.Opt, Collab: core.WoC}
	assigned := map[int]int{}
	for _, budget := range []int{0, 2} {
		want, err := core.Run(in, core.Config{Method: optWoC, Seed: 1, OptBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, Options{Seeds: []int64{1}, Methods: []core.Method{optWoC}, OptBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cells[optWoC.String()][0].Assigned.Mean; got != float64(want.Assigned) {
			t.Errorf("budget %d: the experiment assigned %v, core.Run %d", budget, got, want.Assigned)
		}
		assigned[budget] = want.Assigned
	}
	if assigned[2] >= assigned[0] {
		t.Errorf("a 2-step budget assigned %d, exact Opt %d: the budget never bound", assigned[2], assigned[0])
	}
}

func TestSeqAndAllMethods(t *testing.T) {
	if got := SeqMethods(); len(got) != 4 {
		t.Errorf("SeqMethods = %d", len(got))
	}
	if got := AllMethods(); len(got) != 8 {
		t.Errorf("AllMethods = %d", len(got))
	}
}

func TestRunDefaults(t *testing.T) {
	// Shrink by running on the small SYN defaults via seeds only — the
	// default setting itself is quick with Seq methods.
	res, err := RunDefaults(workload.SYN, SeqMethods(), []int64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var bdc, woc float64
	for _, r := range res.Rows {
		switch r.Method.String() {
		case "Seq-BDC":
			bdc = r.Assigned.Mean
		case "Seq-w/o-C":
			woc = r.Assigned.Mean
		}
		if r.Assigned.Mean <= 0 {
			t.Fatalf("method %v assigned nothing", r.Method)
		}
	}
	if bdc < woc {
		t.Fatalf("Seq-BDC %v < Seq-w/o-C %v at defaults", bdc, woc)
	}
	if !strings.Contains(res.Table(), "Seq-BDC") {
		t.Error("table render broken")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	e := smallExperiment("fig3")
	seq, err := Run(e, Options{Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(e, Options{Seeds: []int64{1, 2}, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range seq.Methods {
		name := m.String()
		for vi := range e.SweepValues {
			a, b := seq.Cells[name][vi], par.Cells[name][vi]
			if a.Assigned.Mean != b.Assigned.Mean || a.Unfairness.Mean != b.Unfairness.Mean {
				t.Fatalf("%s cell %d differs between sequential and parallel runs", name, vi)
			}
		}
	}
}

func TestRunDynamicSweep(t *testing.T) {
	res, err := RunDynamicSweep(workload.SYN, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res.Intervals)*2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Completion.Mean < 0 || row.Completion.Mean > 1 {
			t.Fatalf("completion = %v", row.Completion.Mean)
		}
		if row.MeanLatency.Mean < 0 {
			t.Fatalf("latency = %v", row.MeanLatency.Mean)
		}
	}
	// At short batch intervals BDC completes at least as much as w/o-C.
	// (At very long intervals the greedy first batch can route workers far
	// from later demand, so snapshot dominance does not compose over time —
	// a genuine dynamic effect the sweep exists to expose.)
	byInterval := map[float64]map[string]float64{}
	for _, row := range res.Rows {
		if byInterval[row.IntervalHours] == nil {
			byInterval[row.IntervalHours] = map[string]float64{}
		}
		byInterval[row.IntervalHours][row.Method.String()] = row.Completion.Mean
	}
	for iv, ms := range byInterval {
		if iv <= 0.25 && ms["Seq-BDC"] < ms["Seq-w/o-C"]-1e-9 {
			t.Errorf("interval %v: BDC completion %v below w/o-C %v", iv, ms["Seq-BDC"], ms["Seq-w/o-C"])
		}
	}
	if !strings.Contains(res.Table(), "batch (min)") {
		t.Error("table render broken")
	}
}

func TestRunHeadroom(t *testing.T) {
	res, err := RunHeadroom(workload.SYN, []int64{1}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	vals := map[string]float64{}
	for _, row := range res.Rows {
		vals[row.Name] = row.Assigned.Mean
	}
	if vals["Seq-BDC"] < vals["Seq-w/o-C"] {
		t.Error("BDC below w/o-C in headroom run")
	}
	if vals["annealing"] < vals["Seq-w/o-C"] {
		t.Error("annealing below the home placement")
	}
	if !strings.Contains(res.Table(), "annealing") {
		t.Error("table render broken")
	}
}

func TestRunCapacitySweep(t *testing.T) {
	res, err := RunCapacitySweep(workload.SYN, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res.Values)*2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Assigned must not fall as capacity rises, per method.
	byMethod := map[string][]float64{}
	for _, row := range res.Rows {
		byMethod[row.Method.String()] = append(byMethod[row.Method.String()], row.Assigned.Mean)
	}
	for name, series := range byMethod {
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-9 {
				t.Errorf("%s assigned fell from maxT idx %d to %d: %v", name, i-1, i, series)
			}
		}
	}
	if !strings.Contains(res.Table(), "maxT") {
		t.Error("table render broken")
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	err := WriteReport(&buf, ReportOptions{
		Seeds:   []int64{1},
		Figures: []string{"fig3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# IMTAO reproduction report",
		"Default setting",
		"Fig. 3",
		"shape check",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if werr := WriteReport(&buf, ReportOptions{Figures: []string{"nope"}, Seeds: []int64{1}}); werr == nil {
		t.Error("unknown figure must error")
	}
}
