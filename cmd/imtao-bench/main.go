// Command imtao-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	imtao-bench -experiment fig3              # one figure, Seq methods
//	imtao-bench -experiment fig7 -methods all # include the Opt methods
//	imtao-bench -experiment fig11             # convergence trace (Fig. 11)
//	imtao-bench -experiment fig11 -trace trace.jsonl -metrics-out metrics.prom
//	imtao-bench -experiment table1            # print Table I
//	imtao-bench -all                          # every figure, Seq methods
//	imtao-bench -all -seeds 1,2,3,4,5         # more seeds per point
//
// Output is a per-figure table (assigned tasks, unfairness, CPU time, one
// row per method, one column per swept value) followed by ASCII plots of
// the same series.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"imtao/internal/core"
	"imtao/internal/experiments"
	"imtao/internal/obs"
	"imtao/internal/workload"
)

func main() {
	var (
		expID    = flag.String("experiment", "", "experiment id: table1, fig3..fig11, or an ablation id (empty with -all runs everything)")
		all      = flag.Bool("all", false, "run every experiment")
		methods  = flag.String("methods", "seq", `method set: "seq", "all", or a comma list like "Seq-BDC,Opt-w/o-C"`)
		seeds    = flag.String("seeds", "1,2,3", "comma-separated dataset seeds to average over")
		budget   = flag.Int("opt-budget", 200000, "per-center budget of the Opt assigner in search steps (VTDS extensions plus branch-and-bound nodes, about 1000 per ms); 0 runs it exact")
		plots    = flag.Bool("plots", true, "render ASCII plots after each table")
		verbose  = flag.Bool("v", false, "print one progress line per run")
		convSeed = flag.Int64("conv-seed", 1, "seed for the fig11 convergence run")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		report   = flag.String("report", "", "run a fresh reproduction pass and write a markdown report to this file")
		parallel = flag.Int("parallel", 1, "concurrent sweep cells per experiment")

		shard        = flag.String("shard", "", `sharded game-engine sweep over shard counts, e.g. "1,2,4,8,auto": per -shard-scale size, run the collaboration game uncapped to equilibrium on a road network through the region-sharded engine at each count (1 = the unsharded engine, whose point also carries the engine record: runtime vitals, steady-state allocations, a ledgered run and a check of sampled point searches against full tables; "auto" = the engine-picked ShardAuto point), verify the global Nash equilibrium and that no timed run built a full distance table, and write a JSON record`)
		shardScale   = flag.String("shard-scale", "10k,100k", "comma-separated task sizes for -shard")
		shardOut     = flag.String("shard-json", "BENCH_shard.json", "output path of the -shard record")
		shardDataset = flag.String("shard-dataset", "syn", "dataset generator for -shard: gm or syn")
		shardGrid    = flag.Int("shard-grid", 64, "road-network grid side for -shard (grid² nodes)")
		shardSeed    = flag.Int64("shard-seed", 1, "k-means shard-partition seed for -shard")
		shardTrace   = flag.String("shard-trace", "", "record a Chrome/Perfetto span timeline of the -shard sweep's timed runs (iterations, trials, Dijkstra searches) to this file; adds per-trial overhead, so leave off for baselines")

		tracePath     = flag.String("trace", "", "stream run telemetry (game_iter events with phi and the rho vector) to this JSONL file; honored by fig11")
		metricsOut    = flag.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file on exit")
		runtimeSample = flag.Duration("runtime-sample", 0, "runtime-vitals sampling period (GC pauses, heap, goroutines); 0 enables the default period when -metrics-out is set, negative disables")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile    = flag.String("memprofile", "", "write an allocation (heap) profile to this file on exit; pair with -cpuprofile when hunting allocation sites (docs/MEMPROFILE.md)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "allocation profile written to %s\n", *memProfile)
		}()
	}

	var benchObs obs.Observer = obs.Nop
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		j := obs.NewJSONL(f)
		benchObs = j
		defer func() {
			if err := j.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "imtao-bench: trace:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "telemetry trace written to %s\n", *tracePath)
		}()
	}
	if *metricsOut != "" {
		defer writeMetricsSnapshot(*metricsOut)
	}
	// Runtime vitals: on by default whenever a metrics snapshot is requested,
	// so the exported exposition carries imtao_runtime_* gauges alongside the
	// workload counters. Stop runs before writeMetricsSnapshot (LIFO defers),
	// with one final Sample so the snapshot reflects end-of-run state.
	if *runtimeSample > 0 || (*runtimeSample == 0 && *metricsOut != "") {
		period := *runtimeSample
		if period == 0 {
			period = obs.DefaultSampleInterval
		}
		sampler := obs.NewRuntimeSampler(period, obs.Default, benchObs)
		sampler.Start()
		defer func() {
			sampler.Stop()
			sampler.Sample()
		}()
	}

	if *shard != "" {
		counts, err := parseShardCounts(*shard)
		if err != nil {
			fatal(err)
		}
		sizes, err := parseScaleSizes(*shardScale)
		if err != nil {
			fatal(err)
		}
		d, err := workload.ParseDataset(*shardDataset)
		if err != nil {
			fatal(err)
		}
		if err := runShardSweep(sizes, counts, shardConfig{
			dataset:   d,
			grid:      *shardGrid,
			seed:      *shardSeed,
			jsonPath:  *shardOut,
			tracePath: *shardTrace,
		}); err != nil {
			fatal(err)
		}
		return
	}

	if *report != "" {
		seedList, err := parseSeeds(*seeds)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opt := experiments.ReportOptions{
			Seeds:              seedList,
			IncludeConvergence: true,
			IncludeHeadroom:    true,
		}
		if *verbose {
			opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
		}
		if err := experiments.WriteReport(f, opt); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *report)
		return
	}

	if !*all && *expID == "" {
		fmt.Fprintln(os.Stderr, "imtao-bench: pass -experiment <id> or -all; known ids:")
		fmt.Fprintln(os.Stderr, "  table1, fig11, defaults, dynamic, headroom, capacity,")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(os.Stderr, "  %-7s %s\n", e.ID+",", e.Title)
		}
		fmt.Fprintf(os.Stderr, "  ablations: %v\n", experiments.Ablations())
		os.Exit(2)
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fatal(err)
	}
	methodList, err := parseMethods(*methods)
	if err != nil {
		fatal(err)
	}
	opt := experiments.Options{Seeds: seedList, Methods: methodList, OptBudget: *budget, Parallel: *parallel}
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}

	ids := []string{*expID}
	if *all {
		ids = []string{"table1"}
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
		ids = append(ids, "fig11", "defaults", "dynamic", "headroom", "capacity")
		ids = append(ids, experiments.Ablations()...)
	}

	for _, id := range ids {
		switch id {
		case "table1":
			fmt.Println(experiments.TableI())
		case "capacity":
			for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
				res, err := experiments.RunCapacitySweep(d, seedList)
				if err != nil {
					fatal(err)
				}
				fmt.Println(res.Table())
			}
		case "headroom":
			for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
				res, err := experiments.RunHeadroom(d, seedList, 0)
				if err != nil {
					fatal(err)
				}
				fmt.Println(res.Table())
			}
		case "dynamic":
			for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
				res, err := experiments.RunDynamicSweep(d, seedList)
				if err != nil {
					fatal(err)
				}
				fmt.Println(res.Table())
			}
		case "defaults":
			for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
				res, err := experiments.RunDefaults(d, methodList, seedList, *budget)
				if err != nil {
					fatal(err)
				}
				fmt.Println(res.Table())
			}
		case "fig11":
			for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
				benchObs.Event("bench_dataset",
					obs.F("experiment", "fig11"),
					obs.F("dataset", d.String()),
					obs.F("seed", *convSeed))
				res, err := experiments.ConvergenceObserved(d, *convSeed, benchObs)
				if err != nil {
					fatal(err)
				}
				fmt.Println(res.Render())
				if *csvDir != "" {
					writeCSVFile(*csvDir, fmt.Sprintf("fig11_%s.csv", d), res.WriteCSV)
				}
			}
		default:
			if isAblation(id) {
				for _, d := range []workload.Dataset{workload.GM, workload.SYN} {
					res, err := experiments.RunAblation(id, d, seedList)
					if err != nil {
						fatal(err)
					}
					fmt.Println(res.Table())
					if *csvDir != "" {
						writeCSVFile(*csvDir, fmt.Sprintf("%s_%s.csv", id, d), res.WriteCSV)
					}
				}
				continue
			}
			e, ok := experiments.Lookup(id)
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q", id))
			}
			res, err := experiments.Run(e, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Println(res.Table())
			if *csvDir != "" {
				writeCSVFile(*csvDir, id+".csv", res.WriteCSV)
			}
			if *plots {
				fmt.Println(res.Plots())
			}
			if seqMean, optMean, haveOpt := res.CPUSplit(); haveOpt {
				fmt.Printf("CPU split: Seq methods mean %.4fs, Opt methods mean %.4fs (%.0fx)\n\n",
					seqMean, optMean, optMean/seqMean)
			}
		}
	}
}

// writeCSVFile writes one result CSV into dir, creating it if needed.
func writeCSVFile(dir, name string, write func(io.Writer) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
}

func isAblation(id string) bool {
	for _, a := range experiments.Ablations() {
		if a == id {
			return true
		}
	}
	return false
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return out, nil
}

func parseMethods(s string) ([]core.Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "seq", "":
		return experiments.SeqMethods(), nil
	case "all":
		return experiments.AllMethods(), nil
	}
	var out []core.Method
	for _, part := range strings.Split(s, ",") {
		m, err := core.ParseMethod(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// writeMetricsSnapshot dumps the process-wide metrics registry (with env
// info) to path in Prometheus text format.
func writeMetricsSnapshot(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	obs.RecordEnvInfo(obs.Default)
	if _, err := obs.Default.WriteTo(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtao-bench:", err)
	os.Exit(1)
}
