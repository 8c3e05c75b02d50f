// Package experiments defines one runnable experiment per table and figure
// of the paper's evaluation (§VI): the Table I parameter grid and Figs. 3–11,
// each as a parameter sweep over datasets GM and SYN comparing the eight
// methods {Seq, Opt} × {BDC, RBDC, DC, w/o-C} on the paper's three metrics —
// number of assigned tasks, collaboration unfairness U_ρ and CPU time.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"imtao/internal/core"
	"imtao/internal/metrics"
	"imtao/internal/obs"
	"imtao/internal/stats"
	"imtao/internal/textplot"
	"imtao/internal/workload"
)

// Experiment is a parameter sweep reproducing one figure.
type Experiment struct {
	ID     string // e.g. "fig3"
	Title  string // e.g. "Effect of |S| on GM"
	Figure string // paper anchor, e.g. "Fig. 3"

	Dataset     workload.Dataset
	SweepName   string    // e.g. "|S|"
	SweepValues []float64 // x axis
	// Apply sets the swept parameter on the workload params.
	Apply func(p *workload.Params, v float64)
}

// Registry returns all figure experiments keyed by ID, in presentation
// order. Fig. 11 (convergence) has a dedicated entry point, Convergence.
func Registry() []Experiment {
	taskSweep := []float64{400, 500, 600, 700, 800}
	centerSweep := []float64{20, 30, 40, 50, 60}
	expirySweep := []float64{1.00, 1.25, 1.50, 1.75, 2.00}
	setTasks := func(p *workload.Params, v float64) { p.NumTasks = int(v) }
	setWorkers := func(p *workload.Params, v float64) { p.NumWorkers = int(v) }
	setCenters := func(p *workload.Params, v float64) { p.NumCenters = int(v) }
	setExpiry := func(p *workload.Params, v float64) { p.Expiry = v }

	return []Experiment{
		{ID: "fig3", Title: "Effect of |S| on GM", Figure: "Fig. 3",
			Dataset: workload.GM, SweepName: "|S|", SweepValues: taskSweep, Apply: setTasks},
		{ID: "fig4", Title: "Effect of |S| on SYN", Figure: "Fig. 4",
			Dataset: workload.SYN, SweepName: "|S|", SweepValues: taskSweep, Apply: setTasks},
		{ID: "fig5", Title: "Effect of |W| on GM", Figure: "Fig. 5",
			Dataset: workload.GM, SweepName: "|W|",
			SweepValues: []float64{80, 90, 100, 110, 120}, Apply: setWorkers},
		{ID: "fig6", Title: "Effect of |W| on SYN", Figure: "Fig. 6",
			Dataset: workload.SYN, SweepName: "|W|",
			SweepValues: []float64{100, 125, 150, 175, 200}, Apply: setWorkers},
		{ID: "fig7", Title: "Effect of |C| on GM", Figure: "Fig. 7",
			Dataset: workload.GM, SweepName: "|C|", SweepValues: centerSweep, Apply: setCenters},
		{ID: "fig8", Title: "Effect of |C| on SYN", Figure: "Fig. 8",
			Dataset: workload.SYN, SweepName: "|C|", SweepValues: centerSweep, Apply: setCenters},
		{ID: "fig9", Title: "Effect of e on GM", Figure: "Fig. 9",
			Dataset: workload.GM, SweepName: "e (h)", SweepValues: expirySweep, Apply: setExpiry},
		{ID: "fig10", Title: "Effect of e on SYN", Figure: "Fig. 10",
			Dataset: workload.SYN, SweepName: "e (h)", SweepValues: expirySweep, Apply: setExpiry},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Options tunes a run.
type Options struct {
	// Seeds are the dataset seeds averaged over; default {1, 2, 3}.
	Seeds []int64
	// Methods to compare; default: the four Seq methods. (The Opt methods
	// reproduce the paper's finding that they cost orders of magnitude more
	// CPU; enable them explicitly and expect long runs.)
	Methods []core.Method
	// OptBudget bounds the Opt assigner's per-center search in steps
	// (core.Config.OptBudget); zero runs it exact.
	OptBudget int
	// Parallel runs up to this many (sweep value, seed) cells concurrently;
	// 0 or 1 runs sequentially. Methods within a cell share the instance
	// and still run in order, keeping RBDC seeding deterministic.
	Parallel int
	// Progress, when non-nil, receives one line per completed sweep cell.
	// Calls may come from concurrent workers when Parallel > 1.
	Progress func(string)
}

func (o *Options) fill() {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Methods) == 0 {
		o.Methods = []core.Method{
			{Assigner: core.Seq, Collab: core.BDC},
			{Assigner: core.Seq, Collab: core.RBDC},
			{Assigner: core.Seq, Collab: core.DC},
			{Assigner: core.Seq, Collab: core.WoC},
		}
	}
}

// SeqMethods returns the four sequential-assigner methods.
func SeqMethods() []core.Method {
	return []core.Method{
		{Assigner: core.Seq, Collab: core.BDC},
		{Assigner: core.Seq, Collab: core.RBDC},
		{Assigner: core.Seq, Collab: core.DC},
		{Assigner: core.Seq, Collab: core.WoC},
	}
}

// AllMethods returns all eight paper methods.
func AllMethods() []core.Method { return core.Methods() }

// Cell aggregates one (method, sweep value) cell over seeds.
type Cell struct {
	Assigned   stats.Summary
	Unfairness stats.Summary
	CPUSeconds stats.Summary
}

// Result is a completed experiment.
type Result struct {
	Experiment Experiment
	Methods    []core.Method
	Seeds      []int64
	// Cells[methodName][sweepIndex]
	Cells map[string][]Cell
}

// Run executes the sweep. With opt.Parallel > 1 the (sweep value, seed)
// cells run concurrently; results are aggregated in a fixed order so output
// is identical either way.
func Run(e Experiment, opt Options) (*Result, error) {
	opt.fill()
	res := &Result{
		Experiment: e,
		Methods:    opt.Methods,
		Seeds:      opt.Seeds,
		Cells:      make(map[string][]Cell),
	}
	for _, m := range opt.Methods {
		res.Cells[m.String()] = make([]Cell, len(e.SweepValues))
	}

	// One work unit per (sweep value, seed); outputs indexed by position so
	// aggregation order is deterministic regardless of completion order.
	type cellOut struct {
		assigned, unfair, cpu float64
	}
	nv, ns, nm := len(e.SweepValues), len(opt.Seeds), len(opt.Methods)
	outs := make([]cellOut, nv*ns*nm)
	errs := make([]error, nv*ns)

	runCell := func(vi, si int) {
		v, seed := e.SweepValues[vi], opt.Seeds[si]
		p := workload.Defaults(e.Dataset)
		p.Seed = seed
		e.Apply(&p, v)
		raw, err := workload.Generate(p)
		if err != nil {
			errs[vi*ns+si] = fmt.Errorf("experiments: generating %s %s=%v: %w", e.ID, e.SweepName, v, err)
			return
		}
		in, _, err := core.Partition(raw)
		if err != nil {
			errs[vi*ns+si] = fmt.Errorf("experiments: partitioning %s: %w", e.ID, err)
			return
		}
		for mi, m := range opt.Methods {
			rep, err := core.Run(in, core.Config{Method: m, Seed: seed, OptBudget: opt.OptBudget})
			if err != nil {
				errs[vi*ns+si] = fmt.Errorf("experiments: running %s %v: %w", e.ID, m, err)
				return
			}
			outs[(vi*ns+si)*nm+mi] = cellOut{
				assigned: float64(rep.Assigned),
				unfair:   rep.Unfairness,
				cpu:      (rep.Phase1Time + rep.Phase2Time).Seconds(),
			}
			if opt.Progress != nil {
				opt.Progress(fmt.Sprintf("%s %s=%g seed=%d %s: assigned=%d U=%.3f t=%s",
					e.ID, e.SweepName, v, seed, m, rep.Assigned, rep.Unfairness,
					rep.Phase1Time+rep.Phase2Time))
			}
		}
	}

	if opt.Parallel > 1 {
		sem := make(chan struct{}, opt.Parallel)
		var wg sync.WaitGroup
		for vi := 0; vi < nv; vi++ {
			for si := 0; si < ns; si++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(vi, si int) {
					defer wg.Done()
					defer func() { <-sem }()
					runCell(vi, si)
				}(vi, si)
			}
		}
		wg.Wait()
	} else {
		for vi := 0; vi < nv; vi++ {
			for si := 0; si < ns; si++ {
				runCell(vi, si)
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for vi := 0; vi < nv; vi++ {
		for mi, m := range opt.Methods {
			var as, us, cs []float64
			for si := 0; si < ns; si++ {
				o := outs[(vi*ns+si)*nm+mi]
				as = append(as, o.assigned)
				us = append(us, o.unfair)
				cs = append(cs, o.cpu)
			}
			res.Cells[m.String()][vi] = Cell{
				Assigned:   stats.Summarize(as),
				Unfairness: stats.Summarize(us),
				CPUSeconds: stats.Summarize(cs),
			}
		}
	}
	return res, nil
}

// methodNames returns the result's method names in run order.
func (r *Result) methodNames() []string {
	out := make([]string, len(r.Methods))
	for i, m := range r.Methods {
		out[i] = m.String()
	}
	return out
}

// Table renders the three metric tables (assigned, unfairness, CPU) in the
// row/series layout of the paper's figures.
func (r *Result) Table() string {
	var b strings.Builder
	e := r.Experiment
	fmt.Fprintf(&b, "%s — %s (%s, seeds=%v)\n", e.Figure, e.Title, e.Dataset, r.Seeds)
	metricTable(&b, r, "(a) number of assigned tasks", func(c Cell) float64 { return c.Assigned.Mean })
	metricTable(&b, r, "(b) collaboration unfairness U_rho", func(c Cell) float64 { return c.Unfairness.Mean })
	metricTable(&b, r, "(c) CPU time (seconds)", func(c Cell) float64 { return c.CPUSeconds.Mean })
	return b.String()
}

func metricTable(b *strings.Builder, r *Result, title string, pick func(Cell) float64) {
	e := r.Experiment
	fmt.Fprintf(b, "\n  %s\n", title)
	fmt.Fprintf(b, "  %-10s", e.SweepName+" =")
	for _, v := range e.SweepValues {
		fmt.Fprintf(b, " %10g", v)
	}
	fmt.Fprintln(b)
	for _, name := range r.methodNames() {
		fmt.Fprintf(b, "  %-10s", name)
		for _, c := range r.Cells[name] {
			v := pick(c)
			if strings.Contains(title, "CPU") {
				fmt.Fprintf(b, " %10.4g", v)
			} else {
				fmt.Fprintf(b, " %10.3f", v)
			}
		}
		fmt.Fprintln(b)
	}
}

// Plots renders the three ASCII charts for the experiment.
func (r *Result) Plots() string {
	var b strings.Builder
	ticks := make([]string, len(r.Experiment.SweepValues))
	for i, v := range r.Experiment.SweepValues {
		ticks[i] = fmt.Sprintf("%g", v)
	}
	for _, m := range []struct {
		title string
		pick  func(Cell) float64
	}{
		{"assigned tasks", func(c Cell) float64 { return c.Assigned.Mean }},
		{"unfairness U_rho", func(c Cell) float64 { return c.Unfairness.Mean }},
		{"CPU seconds", func(c Cell) float64 { return c.CPUSeconds.Mean }},
	} {
		ch := textplot.Chart{
			Title:  fmt.Sprintf("%s — %s: %s", r.Experiment.Figure, r.Experiment.Title, m.title),
			XLabel: r.Experiment.SweepName,
			YLabel: m.title,
			XTicks: ticks,
		}
		for _, name := range r.methodNames() {
			vals := make([]float64, len(r.Cells[name]))
			for i, c := range r.Cells[name] {
				vals[i] = m.pick(c)
			}
			ch.Series = append(ch.Series, textplot.Series{Name: name, Values: vals})
		}
		b.WriteString(ch.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// ConvergencePoint is one game iteration of the Fig. 11 trace.
type ConvergencePoint struct {
	Iteration  int
	Assigned   int
	Unfairness float64
	// Phi is the game potential Φ = Σρ_i after the iteration (for iteration
	// 0, after phase 1) — the monotone witness of convergence.
	Phi float64
}

// ConvergenceResult is the Fig. 11 reproduction for one dataset.
type ConvergenceResult struct {
	Dataset workload.Dataset
	Seed    int64
	Points  []ConvergencePoint
}

// Convergence reproduces Fig. 11: the per-iteration assigned count,
// unfairness and potential Φ of the Seq-BDC game at |C| = 50 (paper
// setting), other parameters at defaults.
func Convergence(d workload.Dataset, seed int64) (*ConvergenceResult, error) {
	return ConvergenceObserved(d, seed, nil)
}

// ConvergenceObserved is Convergence with a telemetry observer attached to
// the run (nil disables it) — the hook behind imtao-bench -trace.
func ConvergenceObserved(d workload.Dataset, seed int64, o obs.Observer) (*ConvergenceResult, error) {
	p := workload.Defaults(d)
	p.NumCenters = 50
	p.Seed = seed
	raw, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	in, _, err := core.Partition(raw)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(in, core.Config{
		Method:   core.Method{Assigner: core.Seq, Collab: core.BDC},
		Observer: o,
	})
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Dataset: d, Seed: seed}
	res.Points = append(res.Points, ConvergencePoint{
		Iteration: 0, Assigned: rep.Phase1Assigned, Unfairness: rep.Phase1Unfairness,
		Phi: metrics.Phi(rep.Phase1Ratios),
	})
	for _, step := range rep.Trace {
		if step.Accepted {
			res.Points = append(res.Points, ConvergencePoint{
				Iteration: step.Iteration, Assigned: step.Assigned,
				Unfairness: step.Unfairness, Phi: step.Phi,
			})
		}
	}
	return res, nil
}

// Render renders the convergence trace as a table plus chart.
func (c *ConvergenceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — Convergence of Seq-BDC on %s (|C|=50, seed=%d)\n", c.Dataset, c.Seed)
	fmt.Fprintf(&b, "  %-10s %-10s %-10s %-10s\n", "iteration", "assigned", "U_rho", "phi")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "  %-10d %-10d %-10.4f %-10.4f\n", p.Iteration, p.Assigned, p.Unfairness, p.Phi)
	}
	assigned := make([]float64, len(c.Points))
	unfair := make([]float64, len(c.Points))
	phi := make([]float64, len(c.Points))
	ticks := make([]string, len(c.Points))
	for i, p := range c.Points {
		assigned[i] = float64(p.Assigned)
		unfair[i] = p.Unfairness
		phi[i] = p.Phi
		ticks[i] = fmt.Sprintf("%d", p.Iteration)
	}
	b.WriteString(textplot.Chart{
		Title: "assigned tasks per accepted game iteration", XTicks: sparseTicks(ticks),
		Series: []textplot.Series{{Name: "assigned", Values: assigned}},
	}.Render())
	b.WriteString(textplot.Chart{
		Title: "unfairness per accepted game iteration", XTicks: sparseTicks(ticks),
		Series: []textplot.Series{{Name: "U_rho", Values: unfair}},
	}.Render())
	b.WriteString(textplot.Chart{
		Title: "potential Phi per accepted game iteration", XTicks: sparseTicks(ticks),
		Series: []textplot.Series{{Name: "Phi", Values: phi}},
	}.Render())
	return b.String()
}

func sparseTicks(ticks []string) []string {
	if len(ticks) <= 8 {
		return ticks
	}
	out := make([]string, len(ticks))
	step := (len(ticks) + 7) / 8
	for i := range ticks {
		if i%step == 0 || i == len(ticks)-1 {
			out[i] = ticks[i]
		}
	}
	return out
}

// TableI renders the experiment-parameter table of the paper.
func TableI() string {
	var b strings.Builder
	b.WriteString("Table I — Experiment Parameters (defaults marked *)\n")
	rows := []struct{ name, gm, syn string }{
		{"Number of tasks |S|", "*400, 500, 600, 700, 800", "*400, 500, 600, 700, 800"},
		{"Number of workers |W|", "80, 90, *100, 110, 120", "*100, 125, 150, 175, 200"},
		{"Number of centers |C|", "*20, 30, 40, 50, 60", "*20, 30, 40, 50, 60"},
		{"Expiration time e (h)", "*1.00, 1.25, 1.50, 1.75, 2.00", "*1.00, 1.25, 1.50, 1.75, 2.00"},
		{"Worker capacity maxT", "4", "4"},
		{"Task reward s.r", "1", "1"},
	}
	fmt.Fprintf(&b, "  %-24s %-32s %-32s\n", "Parameter", "GM", "SYN")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %-32s %-32s\n", r.name, r.gm, r.syn)
	}
	return b.String()
}

// CPUSplit summarises the CPU-time magnitude gap the paper highlights
// (Seq methods in milliseconds, Opt methods in the thousands of seconds):
// it returns the mean CPU seconds of the Seq and Opt method groups.
func (r *Result) CPUSplit() (seqMean, optMean float64, haveOpt bool) {
	var seqVals, optVals []float64
	for _, m := range r.Methods {
		for _, c := range r.Cells[m.String()] {
			if m.Assigner == core.Opt {
				optVals = append(optVals, c.CPUSeconds.Mean)
			} else {
				seqVals = append(seqVals, c.CPUSeconds.Mean)
			}
		}
	}
	return stats.Summarize(seqVals).Mean, stats.Summarize(optVals).Mean, len(optVals) > 0
}
