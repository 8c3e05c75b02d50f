// Command perfbench is the repository's benchmark: for one named workload it
// generates the inputs from a seed, makes several fresh set-ups of the
// long-lived solver state, runs a fixed number of back-to-back imtao.Run
// calls on the defaults the library ships with, checks every output, and
// prints the end-to-end metrics. With --trace 1 it then makes a separate
// traced pass that calls each layer from here, timing every call, and
// prints the per-layer metrics instead. README.md describes the workloads
// and metrics.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload syn10k-game --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {"solve_p50_ms": {"value": 401.2, "unit": "ms"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// failures describes each failed solve; run repeats them on standard
	// error, so a caller that keeps only the result line still sees why.
	failures []string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring time; sets the fixed number of timed solves")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	spans := fs.String("spans", "", "traced-pass span file (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := w.measure(*seed, *seconds, *trace == 1, *spans, stdout)
	if err != nil {
		return err
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench %s seed %d: FAIL %s\n", w.name, *seed, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure makes one run of the workload, prints the text report to out and
// returns the result line.
func (w spec) measure(seed int64, seconds float64, traced bool, spansPath string, out io.Writer) (*result, error) {
	perSetup := w.solvesPerSetup(seconds)
	fmt.Fprintf(out, "perfbench %s: seed %d, %d set-ups × (1 cold + %d timed solves), num_cpu %d, GOMAXPROCS %d, %s\n",
		w.name, seed, w.setups, perSetup, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	tr, err := w.runTimed(seed, perSetup)
	if err != nil {
		return nil, err
	}
	e2e := w.endToEndMetrics(tr)
	w.printEndToEnd(out, tr, e2e)
	for _, f := range tr.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	res := &result{
		Correct:   tr.failed == 0,
		Attempted: tr.attempted,
		Failed:    tr.failed,
		Metrics:   map[string]metricValue{},
		failures:  tr.failures,
	}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, nil
	}

	layers := map[string]float64{"solve_p50_ms": e2e["solve_p50_ms"], "solve_cpu_ms": e2e["solve_cpu_ms"]}
	w.solveLayerMetrics(tr, layers)
	log := newSpanLog()
	if err := w.tracedPass(tr, log, layers); err != nil {
		return nil, err
	}
	if err := log.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "per-layer metrics (traced pass, %d traced solves, %d spans in %s):\n",
		w.tracedSolves(), len(log.spans), spansPath)
	if layers["traced.valid"] != 1 {
		fmt.Fprintln(out, "  INVALID: the traced pass did not reproduce the timed solve's solution")
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		if w.usesLayer(d.name) {
			fmt.Fprintf(out, "  %-28s %14.4f %s\n", d.name, layers[d.name], d.unit)
		}
	}
	return res, nil
}

// printEndToEnd prints the end-to-end metrics with their sample counts, and
// each timing with the highest percentile that has ten samples beyond it.
func (w spec) printEndToEnd(out io.Writer, tr *timedRun, m map[string]float64) {
	walls, cpus := tr.timings()
	var setups []float64
	for _, s := range tr.setups {
		setups = append(setups, s.setup.Seconds())
	}
	samples := map[string][]float64{"solve_p50_ms": walls, "solve_cpu_ms": cpus, "setup_s": setups}
	fmt.Fprintf(out, "end-to-end metrics (%d timed solves, %d set-ups; attempted %d, failed %d; host steal %.1f%% of CPU time during the timed solves):\n",
		len(walls), len(setups), tr.attempted, tr.failed, 100*tr.stealShare())
	for _, d := range endToEnd {
		line := fmt.Sprintf("  %-14s %14.4f %-6s", d.name, m[d.name], d.unit)
		if xs, ok := samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", len(xs))
			if pct, v, ok := tailPercentile(xs); ok {
				line += fmt.Sprintf(", p%.1f=%.4f (not gated)", pct, v)
			}
		}
		fmt.Fprintln(out, line)
	}
}
