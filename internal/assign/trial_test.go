package assign

import (
	"math/rand"
	"reflect"
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
