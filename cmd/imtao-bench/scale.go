package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/roadnet"
	"imtao/internal/workload"
)

// The -scale sweep is the acceptance benchmark of the distance oracle
// (DESIGN.md §10): it runs the full Seq-BDC pipeline on a road network at
// 10k/50k/100k tasks on the shipped oracle defaults, records per-phase
// latency and the oracle's search traffic, and asserts its two invariants:
// full tables are built for pinned sources only (full_searches == pinned),
// and sampled point-search answers equal fresh full tables bit for bit
// (exact_ok).

// scaleRecord is the schema of BENCH_oracle.json.
type scaleRecord struct {
	Benchmark  string            `json:"benchmark"`
	Method     string            `json:"method"`
	Dataset    string            `json:"dataset"`
	Grid       int               `json:"grid"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Env        map[string]string `json:"env"`
	Generated  string            `json:"generated"`
	// MaxGameIterations is the phase-2 cap applied at every size; capped
	// runs are feasible but not necessarily at equilibrium.
	MaxGameIterations int           `json:"max_game_iterations"`
	Presets           []scalePreset `json:"presets"`
}

type scalePreset struct {
	Name    string `json:"name"`
	Tasks   int    `json:"tasks"`
	Workers int    `json:"workers"`
	Centers int    `json:"centers"`

	// WallMs is the scene's metric warm-up (snaps and center tables, as
	// core.Run would do them) plus the core.Run call.
	WallMs     float64 `json:"wall_ms"`
	Phase1Ms   float64 `json:"phase1_ms"`
	Phase2Ms   float64 `json:"phase2_ms"`
	Assigned   int     `json:"assigned"`
	Iterations int     `json:"iterations"`
	GameCapped bool    `json:"game_capped"`

	// TravelQueries counts road queries between distinct nodes: pinned
	// table reads plus point searches.
	TravelQueries    int64   `json:"travel_queries"`
	PinnedReads      int64   `json:"pinned_reads"`
	PointSearches    int64   `json:"point_searches"`
	SettledPerSearch float64 `json:"settled_per_search"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	// FullSearches counts full distance tables built; Pinned the center
	// tables core.Run pins. Every other query must be a point search.
	FullSearches int64 `json:"full_searches"`
	Pinned       int   `json:"pinned"`
	// ExactOK: every sampled unpinned pair's point-search answer equals the
	// entry of a fresh full table from the same source, bit for bit.
	ExactOK bool `json:"exact_ok"`
}

type scaleConfig struct {
	dataset  workload.Dataset
	grid     int
	gameCap  int
	jsonPath string
}

func parseScaleSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		v, err := workload.ParseScaleSize(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scale sizes given")
	}
	return out, nil
}

// scene is one sweep size's instance, shared by the -scale and -shard
// sweeps: generated, partitioned over a road network, with every entity
// snapped to it and the center tables pinned. That is the metric warm-up
// core.Run would otherwise do; warmup is its wall time.
type scene struct {
	p      workload.Params
	in     *model.Instance
	net    *roadnet.Network
	label  string
	warmup time.Duration
}

func buildScene(d workload.Dataset, size, grid int) (scene, error) {
	p := workload.ScaleParams(d, size)
	raw, err := workload.Generate(p)
	if err != nil {
		return scene{}, err
	}
	net, err := roadnet.New(raw.Bounds, grid, grid, p.Speed)
	if err != nil {
		return scene{}, err
	}
	raw.Metric = net
	in, _, err := core.Partition(raw)
	if err != nil {
		return scene{}, err
	}
	t0 := time.Now()
	in.PrepareMetric()
	locs := make([]geo.Point, len(in.Centers))
	for i := range in.Centers {
		locs[i] = in.Centers[i].Loc
	}
	net.PrecomputeSources(locs)
	return scene{p: p, in: in, net: net, label: sizeLabel(size), warmup: time.Since(t0)}, nil
}

// sizeLabel names a task count in preset names: "10k", "1m", or the plain
// count when it is not a round thousand.
func sizeLabel(size int) string {
	switch {
	case size%1_000_000 == 0:
		return fmt.Sprintf("%dm", size/1_000_000)
	case size%1000 == 0:
		return fmt.Sprintf("%dk", size/1000)
	}
	return fmt.Sprintf("%d", size)
}

// runScaleSweep executes the scale benchmark and writes BENCH_oracle.json.
func runScaleSweep(sizes []int, cfg scaleConfig) error {
	rec := scaleRecord{
		Benchmark:         "oracle-scale",
		Method:            "Seq-BDC",
		Dataset:           cfg.dataset.String(),
		Grid:              cfg.grid,
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Env:               obs.EnvMeta(),
		Generated:         time.Now().UTC().Format(time.RFC3339),
		MaxGameIterations: cfg.gameCap,
	}
	pinnedReads := obs.Default.Counter("imtao_roadnet_cache_hits_total", "")

	for _, size := range sizes {
		sc, err := buildScene(cfg.dataset, size, cfg.grid)
		if err != nil {
			return err
		}
		p, net := sc.p, sc.net

		r0 := pinnedReads.Value()
		t0 := time.Now()
		rep, err := core.Run(sc.in, core.Config{
			Method:            core.Method{Assigner: core.Seq, Collab: core.BDC},
			MaxGameIterations: cfg.gameCap,
		})
		if err != nil {
			return err
		}
		wall := sc.warmup + time.Since(t0)
		st := net.Stats()

		pr := scalePreset{
			Name:    sc.label,
			Tasks:   p.NumTasks,
			Workers: p.NumWorkers,
			Centers: p.NumCenters,

			WallMs:     ms(wall),
			Phase1Ms:   ms(rep.Phase1Time),
			Phase2Ms:   ms(rep.Phase2Time),
			Assigned:   rep.Assigned,
			Iterations: rep.Iterations,
			GameCapped: cfg.gameCap > 0 && rep.Iterations >= cfg.gameCap,

			PinnedReads:   pinnedReads.Value() - r0,
			PointSearches: st.PointSearches,
			FullSearches:  st.DijkstraRuns - st.PointSearches,
			Pinned:        st.Pinned,
		}
		pr.TravelQueries = pr.PinnedReads + pr.PointSearches
		if st.PointSearches > 0 {
			pr.SettledPerSearch = float64(st.Settled) / float64(st.PointSearches)
		}
		if s := wall.Seconds(); s > 0 {
			pr.QueriesPerSec = float64(pr.TravelQueries) / s
		}
		// After the pipeline, so the sampled searches reuse well-worn scratch
		// and stay out of the traffic counted above.
		pr.ExactOK, err = pointSearchesExact(net, sc.in, cfg.grid, p.Speed)
		if err != nil {
			return err
		}
		rec.Presets = append(rec.Presets, pr)

		fmt.Printf("scale %s — |S|=%d |W|=%d |C|=%d grid=%d²\n",
			pr.Name, pr.Tasks, pr.Workers, pr.Centers, cfg.grid)
		fmt.Printf("  wall %.0f ms (ph1 %.0f, ph2 %.0f), assigned %d, %d game iters%s\n",
			pr.WallMs, pr.Phase1Ms, pr.Phase2Ms, pr.Assigned, pr.Iterations, capTag(pr.GameCapped))
		fmt.Printf("  %d travel queries (%d pinned reads, %d point searches), %.2fM queries/s\n",
			pr.TravelQueries, pr.PinnedReads, pr.PointSearches, pr.QueriesPerSec/1e6)
		fmt.Printf("  %.1f nodes settled per point search, %d full searches for %d pinned, exact_ok=%v\n\n",
			pr.SettledPerSearch, pr.FullSearches, pr.Pinned, pr.ExactOK)

		if pr.FullSearches != int64(pr.Pinned) {
			return fmt.Errorf("scale %s: %d full searches for %d pinned sources",
				pr.Name, pr.FullSearches, pr.Pinned)
		}
		if !pr.ExactOK {
			return fmt.Errorf("scale %s: a point search differs from its full table", pr.Name)
		}
	}

	f, err := os.Create(cfg.jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scale record written to %s\n", cfg.jsonPath)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func capTag(capped bool) string {
	if capped {
		return " (capped)"
	}
	return ""
}

// samplePoints draws up to n entity locations round-robin from centers,
// workers and tasks, so the check samples the distribution the pipeline
// actually queries.
func samplePoints(in *model.Instance, n int) []geo.Point {
	var pts []geo.Point
	for i := 0; len(pts) < n; i++ {
		added := false
		if i < len(in.Centers) {
			pts = append(pts, in.Centers[i].Loc)
			added = true
		}
		if len(pts) < n && i < len(in.Workers) {
			pts = append(pts, in.Workers[i].Loc)
			added = true
		}
		if len(pts) < n && i < len(in.Tasks) {
			pts = append(pts, in.Tasks[i].Loc)
			added = true
		}
		if !added {
			break
		}
	}
	return pts
}

// pointSearchesExact checks point searches of the pipeline network against
// full tables. It samples consecutive entity pairs that touch no center node,
// so net answers each with a point search from the lower node id, then pins
// exactly those sources on a fresh network and compares the two answers bit
// for bit.
func pointSearchesExact(net *roadnet.Network, in *model.Instance, grid int, speed float64) (bool, error) {
	centers := make(map[int32]bool, len(in.Centers))
	for _, c := range in.Centers {
		node, _ := net.SnapNode(c.Loc)
		centers[node] = true
	}
	pts := samplePoints(in, 257)
	type pair struct{ src, dst int32 }
	var pairs []pair
	var srcs []geo.Point
	for i := 1; i < len(pts); i++ {
		a, _ := net.SnapNode(pts[i-1])
		b, _ := net.SnapNode(pts[i])
		if a == b || centers[a] || centers[b] {
			continue
		}
		pairs = append(pairs, pair{min(a, b), max(a, b)})
		srcs = append(srcs, net.NodeLoc(int(min(a, b))))
	}
	if len(pairs) == 0 {
		return false, fmt.Errorf("no unpinned pairs to check")
	}
	fresh, err := roadnet.New(in.Bounds, grid, grid, speed)
	if err != nil {
		return false, err
	}
	fresh.PrecomputeSources(srcs)
	for _, p := range pairs {
		if net.TravelTimeNodes(p.src, 0, p.dst, 0) != fresh.TravelTimeNodes(p.src, 0, p.dst, 0) {
			return false, nil
		}
	}
	return true, nil
}
