// Command imtao-perfgate diffs freshly produced benchmark artifacts against
// committed baselines and exits nonzero on regression — the CI gate over
// BENCH_shard.json and, in the multi-core job, ci/shard_multicore_baseline.json.
//
// Usage:
//
//	imtao-perfgate [-rules perfgate.rules.json] [-v] baseline.json=fresh.json ...
//
// Each positional argument pairs a committed baseline with a fresh artifact.
// Metrics are gated per the rules file (see DESIGN.md §12): deterministic
// outputs (iteration counts, fingerprints, assignment totals) must match
// exactly, wall-clock metrics get wide per-rule headroom so the gate holds
// across machines, and comparison runs over the intersection of the two
// documents — a fresh run covering only the 10k preset is gated against the
// 10k slice of the full committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"imtao/internal/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imtao-perfgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesPath := fs.String("rules", "perfgate.rules.json", "gating rules JSON")
	verbose := fs.Bool("v", false, "print every gated comparison, not only regressions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pairs := fs.Args()
	if len(pairs) == 0 {
		fmt.Fprintln(stderr, "imtao-perfgate: no baseline=fresh pairs given")
		fs.Usage()
		return 2
	}

	rf, err := os.Open(*rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "imtao-perfgate:", err)
		return 2
	}
	rules, err := perfgate.LoadRules(rf)
	rf.Close()
	if err != nil {
		fmt.Fprintln(stderr, "imtao-perfgate:", err)
		return 2
	}

	failed := false
	for _, pair := range pairs {
		basePath, freshPath, ok := strings.Cut(pair, "=")
		if !ok {
			fmt.Fprintf(stderr, "imtao-perfgate: argument %q is not baseline=fresh\n", pair)
			return 2
		}
		base, err := loadFlat(basePath)
		if err != nil {
			fmt.Fprintln(stderr, "imtao-perfgate:", err)
			return 2
		}
		fresh, err := loadFlat(freshPath)
		if err != nil {
			fmt.Fprintln(stderr, "imtao-perfgate:", err)
			return 2
		}
		// Refuse to diff artifacts of different benchmarks: a mixed-up pair
		// would gate nothing (disjoint paths) or, worse, nonsense.
		if bb, fb := base["benchmark"], fresh["benchmark"]; bb != fb {
			fmt.Fprintf(stderr, "imtao-perfgate: %s is %q but %s is %q\n",
				basePath, bb, freshPath, fb)
			return 2
		}

		rep := perfgate.Compare(base, fresh, rules)
		fmt.Fprintf(stdout, "== %s vs %s\n", basePath, freshPath)
		rep.Write(stdout, *verbose)
		if !rep.OK() {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(stderr, "imtao-perfgate: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "imtao-perfgate: PASS")
	return 0
}

func loadFlat(path string) (map[string]any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return perfgate.Flatten(doc), nil
}
