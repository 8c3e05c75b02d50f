package assign

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/roadnet"
)

// randomCenterScene builds a single-center instance with nw workers and nt
// tasks scattered around the center, with per-task expiries spread so some
// workers can reach first tasks and some cannot (exercising both served and
// empty trial routes).
func randomCenterScene(rng *rand.Rand, nw, nt int) *model.Instance {
	var wl, tl []geo.Point
	for i := 0; i < nw; i++ {
		wl = append(wl, geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100))
	}
	for i := 0; i < nt; i++ {
		tl = append(tl, geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100))
	}
	in := centerScene(wl, tl, 0, 1+rng.Intn(4))
	for i := range in.Tasks {
		in.Tasks[i].Expiry = 20 + rng.Float64()*180
	}
	in.Speed = 1 + rng.Float64()*4
	return in
}

// normalizeResult flattens the representation freedoms the trial engine is
// allowed: nil vs empty slices and the Stats work profile (a resumed trial
// only pays for the suffix it replays, so its counters are intentionally
// smaller than a full run's).
func normalizeResult(r Result) Result {
	r.Stats = Stats{}
	if len(r.Routes) == 0 {
		r.Routes = nil
	}
	if len(r.LeftWorkers) == 0 {
		r.LeftWorkers = nil
	}
	if len(r.LeftTasks) == 0 {
		r.LeftTasks = nil
	}
	return r
}

// checkTrialMatchesFull asserts, for every worker outside the baseline set,
// that the prefix-resume trial returns exactly what a full Sequential run over
// the extended worker set would.
func checkTrialMatchesFull(t *testing.T, in *model.Instance, trial int, base []model.WorkerID) {
	t.Helper()
	c := in.Center(0)
	tasks := in.Centers[0].Tasks
	baseline := Sequential(in, c, base, tasks)
	tb, ok := NewTrialBase(NewTaskOrders(in), c, base, baseline.Routes, baseline.LeftTasks)
	if !ok {
		t.Fatalf("trial %d: NewTrialBase rejected a genuine Sequential baseline", trial)
	}
	runner := tb.NewRunner()

	inBase := make(map[model.WorkerID]bool, len(base))
	for _, w := range base {
		inBase[w] = true
	}
	for _, w := range in.Centers[0].Workers {
		if inBase[w] {
			continue
		}
		got := normalizeResult(runner.Trial(w))
		ws := append(append([]model.WorkerID(nil), base...), w)
		want := normalizeResult(Sequential(in, c, ws, tasks))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d cand %d:\n got  %+v\n want %+v", trial, w, got, want)
		}
	}
}

// TestTrialMatchesFullRunEuclidean is the core equivalence property of the
// resumable trial engine on straight-line instances: Trial(cand) ==
// Sequential(base ∪ {cand}) bit-for-bit, for every insertion position.
func TestTrialMatchesFullRunEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		in := randomCenterScene(rng, 2+rng.Intn(10), 1+rng.Intn(30))
		all := in.Centers[0].Workers
		// A random proper subset is the baseline; the rest are candidates.
		k := rng.Intn(len(all))
		base := append([]model.WorkerID(nil), all[:k]...)
		checkTrialMatchesFull(t, in, trial, base)
	}
}

// TestTrialMatchesFullRunRoadNetwork repeats the equivalence property under
// the road-network metric, where travel times are asymmetric to the straight
// line and the snap memo is in play.
func TestTrialMatchesFullRunRoadNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		in := randomCenterScene(rng, 2+rng.Intn(8), 1+rng.Intn(20))
		net, err := roadnet.New(in.Bounds, 12, 12, in.Speed)
		if err != nil {
			t.Fatal(err)
		}
		net.SetCongestion(geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100), 1+rng.Float64()*3)
		in.Metric = net
		in.PrepareMetric()
		all := in.Centers[0].Workers
		base := append([]model.WorkerID(nil), all[:rng.Intn(len(all))]...)
		checkTrialMatchesFull(t, in, trial, base)
	}
}

// TestTrialEmptyBase covers the DC-shaped trial: no baseline workers, the
// candidate alone over the leftover tasks.
func TestTrialEmptyBase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		in := randomCenterScene(rng, 1+rng.Intn(6), 1+rng.Intn(20))
		checkTrialMatchesFull(t, in, trial, nil)
	}
}

// cascadeScene builds a center whose trials cascade: base workers on
// distinct radii around the center and one candidate in every gap between
// them (and beyond both ends), so candidates enter at every serve position.
// Two task layouts alternate. One is a small integer lattice (duplicate
// points and equal-distance ties) plus tight clusters of one neighbour
// list's size, with deadlines tight enough that most routes end early. The
// other is a dense blob around the center served by workers with room for
// more than a list's worth of tasks, so routes outrun their neighbour lists
// while earlier routes free tasks around them. Either way a candidate's
// picks shift the later routes and free tasks the baseline had taken.
func cascadeScene(rng *rand.Rand, road bool) (in *model.Instance, base, cands []model.WorkerID) {
	m := 2 + rng.Intn(7)
	radii := make([]float64, 2*m+1)
	r := 0.5 + rng.Float64()
	for i := range radii {
		radii[i] = r
		r += 0.5 + rng.Float64()*1.5
	}
	var wl, tl []geo.Point
	for _, r := range radii {
		a := rng.Float64() * 2 * math.Pi
		wl = append(wl, geo.Pt(r*math.Cos(a), r*math.Sin(a)))
	}
	blob := rng.Intn(2) == 0
	if blob {
		for i := 0; i < 60+rng.Intn(200); i++ {
			a, r := rng.Float64()*2*math.Pi, 3*math.Sqrt(rng.Float64())
			tl = append(tl, geo.Pt(r*math.Cos(a), r*math.Sin(a)))
		}
	} else {
		for i := 0; i < 30+rng.Intn(120); i++ {
			tl = append(tl, geo.Pt(float64(rng.Intn(11)-5), float64(rng.Intn(11)-5)))
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			cx, cy := rng.Float64()*16-8, rng.Float64()*16-8
			for i := 0; i < neighbourListLen; i++ {
				tl = append(tl, geo.Pt(cx+rng.Float64()*0.5, cy+rng.Float64()*0.5))
			}
		}
	}
	in = centerScene(wl, tl, 0, 1)
	in.Bounds = geo.NewRect(geo.Pt(-30, -30), geo.Pt(30, 30))
	for i := range in.Tasks {
		in.Tasks[i].Expiry = 8 + rng.Float64()*40
		if blob {
			in.Tasks[i].Expiry = 20 + rng.Float64()*100
		}
	}
	for i := range in.Workers {
		in.Workers[i].MaxT = 2 + rng.Intn(6)
		if blob {
			in.Workers[i].MaxT = 10 + rng.Intn(30)
		}
	}
	if road {
		net, err := roadnet.New(in.Bounds, 12, 12, in.Speed)
		if err != nil {
			panic(err)
		}
		net.SetCongestion(geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10), 1+rng.Float64()*3)
		in.Metric = net
		in.PrepareMetric()
	}
	// Radii ascend with the worker ID: odd IDs are the base, even IDs the
	// candidates, one per serve position.
	for i := range wl {
		if i%2 == 1 {
			base = append(base, model.WorkerID(i))
		} else {
			cands = append(cands, model.WorkerID(i))
		}
	}
	return in, base, cands
}

// TestTrialCascadeEveryPosition checks Trial ≡ Sequential(base ∪ {cand})
// with the candidate at every serve position of long-cascade scenes, on
// straight-line and road metrics, and that the scenes do cascade: in some
// trials the routes other than the candidate's differ from the baseline's.
func TestTrialCascadeEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	displaced := 0
	for trial := 0; trial < 1000; trial++ {
		in, base, cands := cascadeScene(rng, trial%4 == 3)
		c := in.Center(0)
		baseline := Sequential(in, c, base, c.Tasks)
		tb, ok := NewTrialBase(NewTaskOrders(in), c, base, baseline.Routes, baseline.LeftTasks)
		if !ok {
			t.Fatalf("trial %d: NewTrialBase rejected a genuine Sequential baseline", trial)
		}
		runner := tb.NewRunner()
		for pos, w := range cands {
			got := runner.Trial(w)
			ws := append(slices.Clone(base), w)
			want := Sequential(in, c, ws, c.Tasks)
			if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
				t.Fatalf("trial %d cand %d (serve position %d):\n got  %+v\n want %+v",
					trial, w, len(cands)-1-pos, got, want)
			}
			var others []model.Route
			for _, rt := range got.Routes {
				if rt.Worker != w {
					others = append(others, rt)
				}
			}
			if !reflect.DeepEqual(others, normalizeResult(baseline).Routes) {
				displaced++
			}
		}
	}
	if displaced == 0 {
		t.Fatal("cascade scenes too tame: no trial displaced a baseline route")
	}
}

// TestTrialKeyGroupsExactly checks the grouping the game builds on Head.
// The heads of every candidate run first, and one Trial per key runs after
// them on the same runner, for the key's first candidate. Every candidate's
// own Trial must assign as many tasks as its key's, and each key's first
// candidate must get exactly its own Trial's Result. The scenes are the
// cascade scenes, with one candidate per serve position, and random scenes,
// where candidates share positions but reach the center at different times,
// each on straight-line and road metrics.
func TestTrialKeyGroupsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shared := 0
	for trial := 0; trial < 600; trial++ {
		road := trial%2 == 1
		var in *model.Instance
		var base, cands []model.WorkerID
		if trial%4 < 2 {
			in, base, cands = cascadeScene(rng, road)
		} else {
			in = randomCenterScene(rng, 2+rng.Intn(16), 1+rng.Intn(40))
			if road {
				net, err := roadnet.New(in.Bounds, 12, 12, in.Speed)
				if err != nil {
					t.Fatal(err)
				}
				net.SetCongestion(geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100), 1+rng.Float64()*3)
				in.Metric = net
				in.PrepareMetric()
			}
			all := in.Centers[0].Workers
			k := rng.Intn(len(all))
			base, cands = all[:k], all[k:]
		}
		c := in.Center(0)
		baseline := Sequential(in, c, base, c.Tasks)
		tb, ok := NewTrialBase(NewTaskOrders(in), c, base, baseline.Routes, baseline.LeftTasks)
		if !ok {
			t.Fatalf("trial %d: NewTrialBase rejected a genuine Sequential baseline", trial)
		}
		runner, check := tb.NewRunner(), tb.NewRunner()
		keys := make([]TrialKey, len(cands))
		first := make(map[TrialKey]int)
		for i, w := range cands {
			keys[i] = runner.Head(w)
			if _, ok := first[keys[i]]; !ok {
				first[keys[i]] = i
			}
		}
		grouped := make(map[TrialKey]Result)
		for i, w := range cands {
			if first[keys[i]] == i {
				grouped[keys[i]] = runner.Trial(w)
			}
		}
		for i, w := range cands {
			got, own := grouped[keys[i]], check.Trial(w)
			if got.AssignedCount() != own.AssignedCount() {
				t.Fatalf("trial %d cand %d (key %+v): grouped count %d, own trial %d",
					trial, w, keys[i], got.AssignedCount(), own.AssignedCount())
			}
			if first[keys[i]] != i {
				shared++
			} else if !reflect.DeepEqual(got, own) {
				t.Fatalf("trial %d cand %d (key %+v): first candidate's trial after the heads:\n got  %+v\n want %+v",
					trial, w, keys[i], got, own)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two candidates shared a key; the grouping was never exercised")
	}
}

// TestTrialBoundHolds pins TrialBase.Bound, which the game's bounded sweep
// trusts to skip trial keys: every candidate's Trial assigns at most its
// key's bound, and the empty key's bound is the baseline's own count. Each
// worker's MaxT is drawn from 1–6, so the capacity sum neither repeats the
// pool size nor is tight by construction. Both sweep scopes are covered:
// the full scope extends a worker subset over all of the center's tasks,
// and the leftover scope (DC) serves one candidate over another
// assignment's leftover tasks from the empty baseline.
func TestTrialBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Full-scope trials below their bound, and full-scope keys whose bound
	// the capacity sum sets below the pool size.
	var short, capped int
	for trial := 0; trial < 300; trial++ {
		in := randomCenterScene(rng, 2+rng.Intn(12), 1+rng.Intn(40))
		for i := range in.Workers {
			in.Workers[i].MaxT = 1 + rng.Intn(6)
		}
		c := in.Center(0)
		o := NewTaskOrders(in)
		all := in.Centers[0].Workers
		k := rng.Intn(len(all))
		for _, leftover := range []bool{false, true} {
			base, cands := all[:k], all[k:]
			baseline := Sequential(in, c, base, c.Tasks)
			if leftover {
				baseline = Result{LeftTasks: baseline.LeftTasks}
				base, cands = nil, all
			}
			tb, ok := NewTrialBase(o, c, base, baseline.Routes, baseline.LeftTasks)
			if !ok {
				t.Fatalf("trial %d: NewTrialBase rejected a genuine baseline", trial)
			}
			pool := baseline.AssignedCount() + len(baseline.LeftTasks)
			if got, want := tb.Bound(TrialKey{}), baseline.AssignedCount(); got != want {
				t.Fatalf("trial %d leftover=%v: empty-key bound %d, baseline assigns %d",
					trial, leftover, got, want)
			}
			runner := tb.NewRunner()
			for _, w := range cands {
				key := runner.Head(w)
				res := runner.Trial(w)
				bound, n := tb.Bound(key), res.AssignedCount()
				switch {
				case n > bound:
					t.Fatalf("trial %d leftover=%v cand %d (key %+v): trial assigns %d, bound %d",
						trial, leftover, w, key, n, bound)
				case key.Len == 0 && n != bound:
					t.Fatalf("trial %d leftover=%v cand %d: empty key assigns %d, bound %d",
						trial, leftover, w, n, bound)
				case leftover:
				case n < bound:
					short++
				}
				if !leftover && bound < pool {
					capped++
				}
			}
		}
	}
	t.Logf("%d full-scope trials below their bound, %d keys capped by capacity", short, capped)
	if short == 0 || capped == 0 {
		t.Fatalf("%d trials below their bound, %d keys capped by capacity: the bound was never tested both ways",
			short, capped)
	}
}

// TestNewTrialBaseRejectsForeignRoutes asserts the constructor detects routes
// that cannot be a Sequential outcome for the given worker set and signals
// the caller to fall back to full evaluation.
func TestNewTrialBaseRejectsForeignRoutes(t *testing.T) {
	in := centerScene(
		[]geo.Point{geo.Pt(0, 1), geo.Pt(0, 2)},
		[]geo.Point{geo.Pt(1, 0), geo.Pt(2, 0)},
		100, 2,
	)
	ws, ts := allIDs(in)
	res := Sequential(in, in.Center(0), ws, ts)
	if len(res.Routes) == 0 {
		t.Fatal("scene must produce at least one route")
	}
	// Routes referencing a worker outside the set cannot line up.
	bad := cloneResultRoutes(res.Routes)
	bad[0].Worker = 99
	if _, ok := NewTrialBase(NewTaskOrders(in), in.Center(0), ws, bad, res.LeftTasks); ok {
		t.Fatal("NewTrialBase accepted routes for a foreign worker")
	}
}

// TestAdmissionSlackPrunesExactly asserts the pruning predicate: a worker
// failing WorkerAdmissible yields an empty route (baseline-identical trial),
// on both metrics.
func TestAdmissionSlackPrunesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		in := randomCenterScene(rng, 2+rng.Intn(8), 1+rng.Intn(20))
		// Tighten the deadlines so distant workers actually get pruned.
		for i := range in.Tasks {
			in.Tasks[i].Expiry = 10 + rng.Float64()*60
		}
		if trial%2 == 1 {
			net, err := roadnet.New(in.Bounds, 10, 10, in.Speed)
			if err != nil {
				t.Fatal(err)
			}
			in.Metric = net
			in.PrepareMetric()
		}
		c := in.Center(0)
		tasks := in.Centers[0].Tasks
		slack := AdmissionSlack(in, c, tasks)
		for _, w := range in.Centers[0].Workers {
			if WorkerAdmissible(in, c, w, slack) {
				continue
			}
			res := Sequential(in, c, []model.WorkerID{w}, tasks)
			if got := res.AssignedCount(); got != 0 {
				t.Fatalf("trial %d: pruned worker %d assigned %d tasks", trial, w, got)
			}
		}
	}
}

func cloneResultRoutes(rs []model.Route) []model.Route {
	out := make([]model.Route, len(rs))
	for i, r := range rs {
		out[i] = model.Route{Worker: r.Worker, Center: r.Center, Tasks: append([]model.TaskID(nil), r.Tasks...)}
	}
	return out
}
