package collab

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/routing"
	"imtao/internal/voronoi"
)

// separatedInstance builds `groups` dense metro blobs separated by far more
// than the admission radius ((slack+pad)·speed ≤ ~900 here, blob spacing
// 20000), so no worker is ever admissible to a foreign blob's centers: any
// shard partition along blob lines has an empty interference cut.
func separatedInstance(rng *rand.Rand, groups int) *model.Instance {
	const spacing = 20000.0
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(float64(groups)*spacing+1000, 1000)),
	}
	for g := 0; g < groups; g++ {
		ox := float64(g) * spacing
		first := len(in.Centers)
		nc := 2 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			in.Centers = append(in.Centers, model.Center{
				ID:  model.CenterID(len(in.Centers)),
				Loc: geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000),
			})
		}
		nearest := func(p geo.Point) model.CenterID {
			best, bd := first, p.Dist2(in.Centers[first].Loc)
			for ci := first + 1; ci < len(in.Centers); ci++ {
				if d := p.Dist2(in.Centers[ci].Loc); d < bd {
					best, bd = ci, d
				}
			}
			return model.CenterID(best)
		}
		for i, nt := 0, 15+rng.Intn(30); i < nt; i++ {
			p := geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000)
			c := nearest(p)
			id := model.TaskID(len(in.Tasks))
			in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
			in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
		}
		for i, nw := 0, 5+rng.Intn(10); i < nw; i++ {
			p := geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000)
			c := nearest(p)
			id := model.WorkerID(len(in.Workers))
			in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
			in.Centers[c].Workers = append(in.Centers[c].Workers, id)
		}
	}
	return in
}

// TestShardedEmptyCutBitIdentical is the property test of the empty-cut
// guarantee: whenever the interference cut (ShardReport.Cut) is empty,
// every shard game ends at the global equilibrium the unsharded engine
// reaches, so RunSharded's per-center routes are bit-identical to Run's and
// RunReference's, the exchange game accepts nothing, and the transfer log
// is the unsharded one regrouped by shard (shard order, each shard's
// transfers in their global order). Separated metro instances make the cut
// provably empty for every shard count that splits along blob lines; shard
// counts above the blob count may split a blob (non-empty cut), in which
// case the run must still reach a verified equilibrium.
func TestShardedEmptyCutBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		groups := 2 + rng.Intn(3)
		in := separatedInstance(rng, groups)
		p1 := phase1(in)
		want := Run(in, p1, seqConfig())
		ref := RunReference(in, p1, seqConfig())
		if !reflect.DeepEqual(want.Solution, ref.Solution) {
			t.Fatalf("trial %d: engine vs reference diverged before sharding", trial)
		}
		emptyCuts := 0
		for _, k := range []int{1, 2, 3, 4, 6, 8} {
			got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 7})
			rep.Cut(in, p1, FullReassign)
			if k <= groups && !rep.EmptyCut {
				t.Fatalf("trial %d shards=%d: expected empty cut on %d separated blobs, got %d boundary workers",
					trial, k, groups, rep.BoundaryWorkers)
			}
			if rep.EmptyCut {
				emptyCuts++
				if !reflect.DeepEqual(got.Solution.PerCenter, ref.Solution.PerCenter) {
					t.Fatalf("trial %d shards=%d: empty cut but per-center routes differ", trial, k)
				}
				if rep.ExchangeTransfers != 0 {
					t.Fatalf("trial %d shards=%d: empty cut but the exchange accepted %d transfers",
						trial, k, rep.ExchangeTransfers)
				}
				regrouped := append([]model.Transfer(nil), want.Solution.Transfers...)
				sort.SliceStable(regrouped, func(i, j int) bool {
					return rep.ShardOf[regrouped[i].Dst] < rep.ShardOf[regrouped[j].Dst]
				})
				if !reflect.DeepEqual(got.Solution.Transfers, regrouped) {
					t.Fatalf("trial %d shards=%d: transfer log is not the unsharded one in shard order", trial, k)
				}
			} else {
				if err := routing.SolutionFeasible(in, got.Solution); err != nil {
					t.Fatalf("trial %d shards=%d: %v", trial, k, err)
				}
			}
			if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
		}
		if emptyCuts < groups {
			t.Fatalf("trial %d: only %d empty-cut shard counts over %d blobs — instance not exercising the empty cut",
				trial, emptyCuts, groups)
		}
	}
}

// TestShardedConflictedEquilibrium: dense instances where the interference
// cut is never empty must still reach a verified global Nash equilibrium,
// with the potential Φ monotone within every phase-A shard segment and
// within the exchange segment, and the whole run deterministic — across
// repeats and at GOMAXPROCS 1 and 4. A game log set on Config.Prov
// stays empty: ShardConfig.Ledger is the sharded engine's only recording
// channel, so no game of the run, the exchange included, writes into it.
func TestShardedConflictedEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	exchanged := false
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 4+rng.Intn(4), 20+rng.Intn(20), 40+rng.Intn(60))
		p1 := phase1(in)
		for _, k := range []int{2, 4} {
			stray := &provenance.GameLog{}
			cfg := seqConfig()
			cfg.Prov = stray
			got, rep := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: k, Seed: 3})
			if err := routing.SolutionFeasible(in, got.Solution); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
			if len(stray.Iters) != 0 {
				t.Fatalf("trial %d shards=%d: %d iterations recorded into Config.Prov",
					trial, k, len(stray.Iters))
			}
			exchanged = exchanged || rep.ExchangeIterations > 0
			if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
			// Φ monotone per segment: the trace is the shard traces in shard
			// order followed by the exchange steps, with segment lengths in
			// the report.
			seg, start := 0, 0
			bounds := append(append([]int(nil), rep.ShardIterations...), rep.ExchangeIterations)
			for _, n := range bounds {
				prev := -1.0
				for i := start; i < start+n; i++ {
					if got.Trace[i].Phi < prev {
						t.Fatalf("trial %d shards=%d: Φ dropped %.6f → %.6f at step %d (segment %d)",
							trial, k, prev, got.Trace[i].Phi, i, seg)
					}
					prev = got.Trace[i].Phi
				}
				start += n
				seg++
			}
			if start != len(got.Trace) {
				t.Fatalf("trial %d shards=%d: segments cover %d steps, trace has %d",
					trial, k, start, len(got.Trace))
			}

			// Determinism: bit-identical on repeat, fully serial, and with
			// shard games on four goroutines.
			again, rep2 := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 3})
			rep.ShardWall, rep2.ShardWall = nil, nil // wall clocks differ by nature
			if !reflect.DeepEqual(got.Solution, again.Solution) || !reflect.DeepEqual(rep, rep2) {
				t.Fatalf("trial %d shards=%d: repeat run diverged", trial, k)
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				par, _ := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 3})
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(got.Solution, par.Solution) ||
					!reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(par.Trace)) {
					t.Fatalf("trial %d shards=%d: GOMAXPROCS %d changed the outcome", trial, k, procs)
				}
			}
		}
	}
	if !exchanged {
		t.Fatal("no exchange game played an iteration; the Config.Prov check is vacuous")
	}
}

// TestShardedDCScope: the leftover-only (DC) scope runs through the sharded
// engine too — phase A dispatches leftovers within each home shard, the
// exchange game finishes globally — deterministically and without ever
// losing tasks versus no collaboration.
func TestShardedDCScope(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 3+rng.Intn(4), 10+rng.Intn(16), 30+rng.Intn(40))
		p1 := phase1(in)
		cfg := seqConfig()
		cfg.Scope = LeftoverOnly
		got, _ := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 5})
		if err := routing.SolutionFeasible(in, got.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base := NoCollaboration(in, p1).AssignedCount(); got.Solution.AssignedCount() < base {
			t.Fatalf("trial %d: sharded DC lost tasks: %d < %d", trial, got.Solution.AssignedCount(), base)
		}
		again, _ := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 5})
		if !reflect.DeepEqual(got.Solution, again.Solution) {
			t.Fatalf("trial %d: DC sharded run not deterministic", trial)
		}
	}
}

// TestShardCutOffSolvePath: RunSharded leaves the cut fields of a
// multi-shard report zero, and Cut fills them from ShardOf. The
// leftover-only (DC) cut of a run sits inside its FullReassign cut: the
// same workers are poolable under either scope, so exclusive plus boundary
// is the same, and DC's admission slack is a maximum over a subset of each
// recipient's tasks, so every DC shard's worker set is a subset of the full
// one — no more boundary workers, no more conflict edges, no fewer
// components.
func TestShardCutOffSolvePath(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	narrower := false
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 6+rng.Intn(4), 20+rng.Intn(20), 60+rng.Intn(60))
		p1 := phase1(in)
		_, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 3, Seed: 5})
		if rep.Shards < 2 {
			t.Fatalf("trial %d: run fell back to %d shard", trial, rep.Shards)
		}
		if rep.ExclusiveWorkers != 0 || rep.BoundaryWorkers != 0 || rep.ConflictEdges != 0 ||
			rep.EmptyCut || rep.Components != 0 || rep.Colors != 0 {
			t.Fatalf("trial %d: RunSharded computed a cut: %+v", trial, rep)
		}
		full, dc := rep, rep
		full.Cut(in, p1, FullReassign)
		dc.Cut(in, p1, LeftoverOnly)
		if full.Components < 1 || full.Colors < 1 || full.EmptyCut != (full.BoundaryWorkers == 0) {
			t.Fatalf("trial %d: malformed full cut %+v", trial, full)
		}
		if dc.ExclusiveWorkers+dc.BoundaryWorkers != full.ExclusiveWorkers+full.BoundaryWorkers {
			t.Fatalf("trial %d: DC touches %d poolable workers, full %d", trial,
				dc.ExclusiveWorkers+dc.BoundaryWorkers, full.ExclusiveWorkers+full.BoundaryWorkers)
		}
		if dc.BoundaryWorkers > full.BoundaryWorkers || dc.ConflictEdges > full.ConflictEdges ||
			dc.Components < full.Components {
			t.Fatalf("trial %d: DC cut %+v is not inside the full cut %+v", trial, dc, full)
		}
		narrower = narrower || dc.BoundaryWorkers < full.BoundaryWorkers
	}
	if !narrower {
		t.Fatal("no trial's DC cut was narrower than its full cut; the scope branch is untested")
	}
}

// TestShardCutSameAtEveryParallelism: Cut's concurrent per-shard scans fill
// the same cut as the serial scan GOMAXPROCS 1 runs, shard by shard.
func TestShardCutSameAtEveryParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	in := randomInstance(rng, 64, 500, 2000)
	p1 := phase1(in)
	_, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 8, Seed: 3})
	serial, concurrent := rep, rep
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial.Cut(in, p1, FullReassign)
	runtime.GOMAXPROCS(4)
	concurrent.Cut(in, p1, FullReassign)
	if serial.Shards < 2 || serial.BoundaryWorkers == 0 {
		t.Fatalf("want a multi-shard run with boundary workers, got %+v", serial)
	}
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("cuts differ:\nserial     %+v\nconcurrent %+v", serial, concurrent)
	}
}

// TestShardCutMatchesReference: Cut equals the brute-force reference at
// shard counts from 2 to above 64, in both scopes, on dense, hotspot and
// separated geographies — cuts with one component and with many.
func TestShardCutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	instances := []*model.Instance{
		randomInstance(rng, 90, 300, 800),
		hotspotInstance(rng, 120, 900, 400),
		separatedInstance(rng, 40),
	}
	var above64, split bool
	for i, in := range instances {
		p1 := phase1(in)
		for _, k := range []int{2, 3, 8, 31, 64, 65, 90, 128} {
			shardOf, n := PlanShards(in, k, 7)
			above64 = above64 || n > 64
			for _, scope := range []Scope{FullReassign, LeftoverOnly} {
				got := ShardReport{Shards: n, ShardOf: shardOf}
				got.Cut(in, p1, scope)
				want := referenceCut(in, p1, scope, shardOf, n)
				if !sameCut(got, want) {
					t.Fatalf("instance %d, %d shards, scope %v: cut %+v, reference %+v", i, n, scope, got, want)
				}
				split = split || (want.BoundaryWorkers > 0 && want.Components > 1)
			}
		}
	}
	if !above64 || !split {
		t.Fatalf("above 64 shards: %v; a cut with boundary workers and several components: %v", above64, split)
	}
}

// referenceCut computes the cut fields plainly: for each poolable worker
// the set of its home shard plus the shard of every recipient center that
// admits it, then the counts, the conflicting pairs, the components by
// breadth-first search and a greedy coloring in shard order.
func referenceCut(in *model.Instance, p1 []assign.Result, scope Scope, shardOf []int, nShards int) ShardReport {
	in.PrepareMetric()
	in.EnsureHot()
	poolable := make([]bool, len(in.Workers))
	var recipients []model.CenterID
	for ci := range in.Centers {
		for _, w := range p1[ci].LeftWorkers {
			poolable[w] = true
		}
		if metrics.Ratio(p1[ci].AssignedCount(), len(in.Centers[ci].Tasks)) < 1 {
			recipients = append(recipients, model.CenterID(ci))
			for _, w := range in.Centers[ci].Workers {
				poolable[w] = true
			}
		}
	}
	rep := ShardReport{Shards: nShards, ShardOf: shardOf}
	conflict := make([][]bool, nShards)
	for s := range conflict {
		conflict[s] = make([]bool, nShards)
	}
	for w := range in.Workers {
		if !poolable[w] {
			continue
		}
		touches := map[int]bool{shardOf[in.Workers[w].Home]: true}
		for _, ci := range recipients {
			c := in.Center(ci)
			tasks := c.Tasks
			if scope == LeftoverOnly {
				tasks = p1[ci].LeftTasks
			}
			if assign.WorkerAdmissible(in, c, model.WorkerID(w), assign.AdmissionSlack(in, c, tasks)) {
				touches[shardOf[ci]] = true
			}
		}
		if len(touches) == 1 {
			rep.ExclusiveWorkers++
			continue
		}
		rep.BoundaryWorkers++
		for a := range touches {
			for b := range touches {
				conflict[a][b] = conflict[a][b] || a != b
			}
		}
	}
	rep.EmptyCut = rep.BoundaryWorkers == 0
	for a := range conflict {
		for b := a + 1; b < nShards; b++ {
			if conflict[a][b] {
				rep.ConflictEdges++
			}
		}
	}
	comp := make([]int, nShards)
	for s := range comp {
		comp[s] = -1
	}
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = rep.Components
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for u := range conflict[queue[0]] {
				if conflict[queue[0]][u] && comp[u] < 0 {
					comp[u] = rep.Components
					queue = append(queue, u)
				}
			}
		}
		rep.Components++
	}
	colors := make([]int, nShards)
	for s := range colors {
		used := map[int]bool{}
		for u := 0; u < s; u++ {
			if conflict[s][u] {
				used[colors[u]] = true
			}
		}
		for used[colors[s]] {
			colors[s]++
		}
		rep.Colors = max(rep.Colors, colors[s]+1)
	}
	return rep
}

// sameCut compares the fields Cut fills.
func sameCut(a, b ShardReport) bool {
	return a.ExclusiveWorkers == b.ExclusiveWorkers && a.BoundaryWorkers == b.BoundaryWorkers &&
		a.ConflictEdges == b.ConflictEdges && a.EmptyCut == b.EmptyCut &&
		a.Components == b.Components && a.Colors == b.Colors
}

// TestShardedFallback: configurations the sharded engine cannot prove safe
// — random recipients, assigners the game does not prune for — fall back
// to the unsharded engine bit-identically, and report a single shard. The
// fallback records through ShardConfig.Ledger only: a game log set on
// Config.Prov stays empty.
func TestShardedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	in := randomInstance(rng, 4, 16, 40)
	p1 := phase1(in)

	stray := &provenance.GameLog{}
	rbdc := seqConfig()
	rbdc.Recipient = RandomRecipient
	rbdc.Rng = rand.New(rand.NewSource(9))
	rbdc.Prov = stray
	got, rep := RunSharded(in, p1, ShardConfig{Config: rbdc, Shards: 4, Seed: 1})
	if rep.Shards != 1 || !rep.EmptyCut {
		t.Fatalf("RBDC did not fall back: %+v", rep)
	}
	if got.Iterations == 0 || len(stray.Iters) != 0 {
		t.Fatalf("fallback played %d iterations and recorded %d into Config.Prov, want some and none",
			got.Iterations, len(stray.Iters))
	}
	rbdc.Rng = rand.New(rand.NewSource(9))
	rbdc.Prov = nil
	want := Run(in, p1, rbdc)
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Fatal("RBDC fallback diverged from Run")
	}

	custom := seqConfig()
	custom.Assigner = func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		return assign.Sequential(in, c, ws, ts)
	}
	if _, rep := RunSharded(in, p1, ShardConfig{Config: custom, Shards: 4, Seed: 1}); rep.Shards != 1 {
		t.Fatalf("custom assigner did not fall back: %+v", rep)
	}

	// Shards ≤ 1 is the unsharded engine by definition.
	got1, rep1 := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 1, Seed: 1})
	if rep1.Shards != 1 {
		t.Fatalf("shards=1 reported %d shards", rep1.Shards)
	}
	if !reflect.DeepEqual(got1.Solution, Run(in, p1, seqConfig()).Solution) {
		t.Fatal("shards=1 diverged from Run")
	}
}

// TestShardMemberGameStepZeroAlloc extends the DESIGN.md §13 gate to the
// sharded phase-A hot path: a warmed member-restricted game iteration —
// exactly what each shard runs — must not touch the heap.
func TestShardMemberGameStepZeroAlloc(t *testing.T) {
	in := skewedInstance(200)
	p1 := phase1(in)
	cfg := Config{Scope: FullReassign, Assigner: assign.Sequential}
	members := make([]model.CenterID, len(in.Centers))
	for i := range members {
		members[i] = model.CenterID(i)
	}
	cfg.members = members
	g := NewGame(in, p1, cfg)
	for i := 0; i < 120; i++ {
		if !g.Step() {
			t.Fatalf("game over after %d iterations — instance too small to meter", i)
		}
	}
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}

// TestReconcileResumedGameStepZeroAlloc extends the §13 zero-alloc gate to
// the exchange game's shape: two member games (the rich center with one
// starved corner, and the other three corners), each stepped up to 40 times,
// then the exchange game continuing their states. A warmed steady-state
// Step must not touch the heap.
func TestReconcileResumedGameStepZeroAlloc(t *testing.T) {
	in := skewedInstance(200)
	p1 := phase1(in)
	cfg := Config{Scope: FullReassign, Assigner: assign.Sequential}

	var shards []*Game
	for _, members := range [][]model.CenterID{{0, 1}, {2, 3, 4}} {
		scfg := cfg
		scfg.members = members
		sg := NewGame(in, p1, scfg)
		for i := 0; i < 40 && sg.Step(); i++ {
		}
		shards = append(shards, sg)
	}
	if n := len(shards[0].transfers); n != 40 {
		t.Fatalf("first member game moved %d workers, want 40", n)
	}
	g := newExchangeGame(in, cfg, shards)
	if len(g.transfers) != 40 {
		t.Fatalf("exchange game starts with %d transfers, want the member games' 40", len(g.transfers))
	}
	for i := 0; i < 60; i++ {
		if !g.Step() {
			t.Fatalf("game over after %d iterations — instance too small to meter", i)
		}
	}
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("exchange-game iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}

// TestShardComponentsAndColoring pins the graph helpers: component labels
// are canonical (first appearance), the greedy coloring takes each shard's
// lowest free color in shard order and is proper, and both hold on graphs
// of any size.
func TestShardComponentsAndColoring(t *testing.T) {
	graph := func(n int, edges ...[2]int) [][]int {
		adj := make([][]int, n)
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		return adj
	}
	proper := func(adj [][]int, colors []int) {
		t.Helper()
		for s := range adj {
			for _, u := range adj[s] {
				if colors[s] == colors[u] {
					t.Fatalf("improper coloring: shards %d and %d are adjacent with color %d", s, u, colors[s])
				}
			}
		}
	}

	// 0–1 2–3–4 5 : an edge, a path and an isolated vertex.
	adj := graph(6, [2]int{0, 1}, [2]int{2, 3}, [2]int{3, 4})
	compOf, nComp := shardComponents(adj)
	if nComp != 3 || !reflect.DeepEqual(compOf, []int{0, 0, 1, 1, 1, 2}) {
		t.Fatalf("components = %v (n=%d)", compOf, nComp)
	}
	colors, nColors := greedyColorShards(adj)
	if nColors != 2 || !reflect.DeepEqual(colors, []int{0, 1, 0, 1, 0, 0}) {
		t.Fatalf("colors = %v (n=%d)", colors, nColors)
	}
	proper(adj, colors)

	// A complete graph needs n colors and forms one component.
	var k4 [][2]int
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			k4 = append(k4, [2]int{a, b})
		}
	}
	if _, n := shardComponents(graph(4, k4...)); n != 1 {
		t.Fatalf("K4 components = %d", n)
	}
	if _, c := greedyColorShards(graph(4, k4...)); c != 4 {
		t.Fatalf("K4 colors = %d", c)
	}

	// 130 vertices: a path over 0..99 listed from its far end, a K5 on
	// 100..104 and 25 isolated vertices.
	var edges [][2]int
	for v := 99; v > 0; v-- {
		edges = append(edges, [2]int{v, v - 1})
	}
	for a := 100; a < 105; a++ {
		for b := a + 1; b < 105; b++ {
			edges = append(edges, [2]int{b, a})
		}
	}
	adj = graph(130, edges...)
	compOf, nComp = shardComponents(adj)
	if nComp != 27 || compOf[0] != 0 || compOf[99] != 0 || compOf[100] != 1 || compOf[104] != 1 ||
		compOf[105] != 2 || compOf[129] != 26 {
		t.Fatalf("130-vertex components: n=%d, labels %v", nComp, compOf)
	}
	colors, nColors = greedyColorShards(adj)
	if nColors != 5 || colors[98] != 0 || colors[99] != 1 || colors[104] != 4 || colors[129] != 0 {
		t.Fatalf("130-vertex colors: n=%d, colors %v", nColors, colors)
	}
	proper(adj, colors)
}

// TestPlanShardsEdgeCases (satellite): degenerate partition inputs — more
// shards than centers, and all-coincident center locations — must produce
// well-formed canonical shard maps, and the full run must survive them.
func TestPlanShardsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(96))

	// Shards ≥ centers: every center gets a shard of its own (labels are a
	// permutation image under first-appearance canonicalization).
	in := randomInstance(rng, 5, 20, 40)
	p1 := phase1(in)
	for _, k := range []int{5, 6, 12, 64} {
		shardOf, n := PlanShards(in, k, 7)
		if n > len(in.Centers) {
			t.Fatalf("k=%d: %d shards from %d centers", k, n, len(in.Centers))
		}
		seen := 0
		for i, s := range shardOf {
			if s < 0 || s >= n {
				t.Fatalf("k=%d: label %d out of range [0,%d)", k, s, n)
			}
			if s > seen {
				t.Fatalf("k=%d: label %d at center %d before %d — not canonical", k, s, i, seen)
			}
			if s == seen {
				seen++
			}
		}
		got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 7})
		if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if rep.Shards != len(rep.ShardIterations) {
			t.Fatalf("k=%d: report inconsistency: %d shards, %d segments", k, rep.Shards, len(rep.ShardIterations))
		}
	}

	// All-coincident centers: the partition collapses to one shard and the
	// run degrades to the unsharded engine.
	co := randomInstance(rng, 4, 16, 30)
	for ci := range co.Centers {
		co.Centers[ci].Loc = geo.Pt(500, 500)
	}
	p1co := phase1(co)
	if _, n := PlanShards(co, 3, 7); n != 1 {
		t.Fatalf("coincident centers produced %d shards, want 1", n)
	}
	got, rep := RunSharded(co, p1co, ShardConfig{Config: seqConfig(), Shards: 3, Seed: 7})
	if rep.Shards != 1 || !rep.EmptyCut {
		t.Fatalf("coincident centers: %+v", rep)
	}
	if !reflect.DeepEqual(got.Solution, Run(co, p1co, seqConfig()).Solution) {
		t.Fatal("coincident-center fallback diverged from the unsharded engine")
	}
}

// TestShardMapStableAcrossParallelism (satellite): the shard map is a pure
// function of (instance, shards, seed) — GOMAXPROCS must never leak into
// the partition or the canonical labeling.
func TestShardMapStableAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for trial := 0; trial < 4; trial++ {
		in := randomInstance(rng, 6+rng.Intn(4), 24+rng.Intn(16), 50+rng.Intn(30))
		p1 := phase1(in)
		var base []int
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			_, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 4, Seed: 11})
			if base == nil {
				base = rep.ShardOf
				continue
			}
			if !reflect.DeepEqual(base, rep.ShardOf) {
				t.Fatalf("trial %d: ShardOf changed at GOMAXPROCS %d: %v vs %v",
					trial, procs, rep.ShardOf, base)
			}
		}
	}
}

// hotspotInstance builds the heterogeneous-load geography of the Hotspot
// workload preset at collab-test scale: uniformly spread centers, demand
// piled onto a dense core, tasks and workers attached to their nearest
// center. Count-balanced shard partitions skew badly here.
func hotspotInstance(rng *rand.Rand, centers, tasks, workers int) *model.Instance {
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)),
	}
	for i := 0; i < centers; i++ {
		in.Centers = append(in.Centers, model.Center{
			ID:  model.CenterID(i),
			Loc: geo.Pt(rng.Float64()*10000, rng.Float64()*10000),
		})
	}
	nearest := func(p geo.Point) model.CenterID {
		best, bd := 0, p.Dist2(in.Centers[0].Loc)
		for ci := 1; ci < len(in.Centers); ci++ {
			if d := p.Dist2(in.Centers[ci].Loc); d < bd {
				best, bd = ci, d
			}
		}
		return model.CenterID(best)
	}
	sample := func() geo.Point {
		if rng.Float64() < 0.7 {
			return geo.Pt(3000+rng.NormFloat64()*500, 3000+rng.NormFloat64()*500)
		}
		return geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	for i := 0; i < tasks; i++ {
		p := sample()
		c := nearest(p)
		id := model.TaskID(len(in.Tasks))
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	for i := 0; i < workers; i++ {
		p := sample()
		c := nearest(p)
		id := model.WorkerID(len(in.Workers))
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
		in.Centers[c].Workers = append(in.Centers[c].Workers, id)
	}
	return in
}

// TestWeightedPlanReducesHotspotSkew (acceptance): on hotspot-heterogeneous
// geographies the task-weighted PlanShards partition carries less task-load
// skew than the count-balanced PR 8 partitioner (plain PartitionPoints over
// the same center locations), in aggregate across seeds.
func TestWeightedPlanReducesHotspotSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	var sumW, sumU float64
	for trial := 0; trial < 6; trial++ {
		in := hotspotInstance(rng, 24, 400, 100)
		pts := make([]geo.Point, len(in.Centers))
		for ci := range in.Centers {
			pts[ci] = in.Centers[ci].Loc
		}

		shardOf, n := PlanShards(in, 6, 7)
		skewW := shardLoadSkew(in, shardOf, n)

		labels, nu := voronoi.PartitionPoints(7, pts, 6)
		skewU := shardLoadSkew(in, labels, nu)

		sumW += skewW
		sumU += skewU
	}
	if sumW >= sumU {
		t.Fatalf("task-weighted partition does not reduce hotspot load skew: %.3f vs %.3f (mean over trials)",
			sumW/6, sumU/6)
	}
}

// TestAutoShardCount pins ShardAuto's closed form: the power of two nearest
// to 16 centers per shard, clamped to [1, 64].
func TestAutoShardCount(t *testing.T) {
	for _, tc := range []struct{ centers, want int }{
		{0, 1}, {1, 1}, {2, 1}, {20, 1}, {23, 2}, {50, 4}, {250, 16},
		{500, 32}, {1000, 64}, {1250, 64}, {5000, 64},
	} {
		if got := autoShardCount(tc.centers); got != tc.want {
			t.Errorf("autoShardCount(%d) = %d, want %d", tc.centers, got, tc.want)
		}
	}
}

// TestShardAutoMatchesExplicitPick: a ShardAuto run records its pick, and
// it IS the explicit run at that count — solution, trace and shard report
// bit for bit. Callers that re-run the picked count to attribute its time
// rely on this.
func TestShardAutoMatchesExplicitPick(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	in := randomInstance(rng, 64, 500, 2000)
	p1 := phase1(in)

	got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: ShardAuto, Seed: 7})
	if rep.ShardsRequested != ShardAuto {
		t.Fatalf("ShardsRequested = %d, want ShardAuto (%d)", rep.ShardsRequested, ShardAuto)
	}
	if rep.Auto == nil || rep.Auto.Picked != 4 {
		t.Fatalf("64 centers: Auto = %+v, want a pick of 4", rep.Auto)
	}
	cut := rep
	cut.Cut(in, p1, FullReassign)
	if rep.Shards < 2 || cut.EmptyCut {
		t.Fatalf("auto run has %d shards, empty cut %v; want a sharded run with an exchange to play",
			rep.Shards, cut.EmptyCut)
	}
	if err := routing.SolutionFeasible(in, got.Solution); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
		t.Fatal(err)
	}

	explicit, erep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: rep.Auto.Picked, Seed: 7})
	if !reflect.DeepEqual(got.Solution, explicit.Solution) ||
		!reflect.DeepEqual(stripDurations(got.Trace), stripDurations(explicit.Trace)) {
		t.Fatalf("auto (picked %d) diverged from the explicit run", rep.Auto.Picked)
	}
	if erep.Auto != nil {
		t.Fatalf("explicit run carries an auto record: %+v", erep.Auto)
	}
	rep.ShardsRequested, rep.Auto = erep.ShardsRequested, nil
	rep.ShardWall, erep.ShardWall = nil, nil
	if !reflect.DeepEqual(rep, erep) {
		t.Fatalf("shard reports differ:\nauto     %+v\nexplicit %+v", rep, erep)
	}
}

// TestShardAutoIneligibleFallback: the pick is recorded whenever the
// sharded engine is eligible, even when it picks one shard; configurations
// that fall back to the unsharded game (here RBDC's random recipients, or a
// single center) record none.
func TestShardAutoIneligibleFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	in := randomInstance(rng, 4, 16, 40)
	p1 := phase1(in)

	_, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: ShardAuto, Seed: 1})
	if rep.Auto == nil || rep.Auto.Picked != 1 || rep.Shards != 1 {
		t.Fatalf("eligible 4-center auto run: Auto %+v, %d shards; want a pick of 1", rep.Auto, rep.Shards)
	}

	cfg := seqConfig()
	cfg.Recipient = RandomRecipient
	cfg.Rng = rand.New(rand.NewSource(9))
	_, rep = RunSharded(in, p1, ShardConfig{Config: cfg, Shards: ShardAuto, Seed: 1})
	if rep.Shards != 1 || rep.ShardsRequested != ShardAuto {
		t.Fatalf("ineligible auto run: %+v", rep)
	}
	if rep.Auto != nil {
		t.Fatalf("ineligible run recorded a pick: %+v", rep.Auto)
	}

	one := randomInstance(rng, 1, 4, 10)
	if _, rep := RunSharded(one, phase1(one), ShardConfig{Config: seqConfig(), Shards: ShardAuto}); rep.Auto != nil {
		t.Fatalf("single-center run recorded a pick: %+v", rep.Auto)
	}
}

// TestShardRequestAbove64: a request above 64 shards runs as asked — on
// 100 distinct centers that all carry tasks, 100 shards — reaches a
// verified equilibrium, and its cut equals the brute-force reference.
func TestShardRequestAbove64(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	in := randomInstance(rng, 100, 300, 2000)
	for ci := range in.Centers {
		if len(in.Centers[ci].Tasks) == 0 {
			t.Fatalf("center %d has no task; the weighted partitioner may merge it", ci)
		}
	}
	p1 := phase1(in)
	got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 100, Seed: 7})
	if rep.Shards != 100 || rep.ShardsRequested != 100 {
		t.Fatalf("shards %d (requested %d), want 100 and 100", rep.Shards, rep.ShardsRequested)
	}
	if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
		t.Fatal(err)
	}
	rep.Cut(in, p1, FullReassign)
	if want := referenceCut(in, p1, FullReassign, rep.ShardOf, rep.Shards); !sameCut(rep, want) {
		t.Fatalf("cut %+v, reference %+v", rep, want)
	}
}
