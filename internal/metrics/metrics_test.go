package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"imtao/internal/geo"
	"imtao/internal/model"
)

func TestRatio(t *testing.T) {
	cases := []struct {
		assigned, total int
		want            float64
	}{
		{0, 0, 1}, // empty center needs nothing
		{0, 4, 0},
		{2, 4, 0.5},
		{4, 4, 1},
	}
	for _, c := range cases {
		if got := Ratio(c.assigned, c.total); got != c.want {
			t.Errorf("Ratio(%d,%d) = %v, want %v", c.assigned, c.total, got, c.want)
		}
	}
}

func TestUnfairnessPaperExample(t *testing.T) {
	// Paper §I: ratios (1.0, 0.5, 0.33) give U_ρ ≈ 0.45;
	// after dispatching w2: (1.0, 0.5, 0.67) gives ≈ 0.33.
	before := Unfairness([]float64{1.0, 0.5, 1.0 / 3})
	if math.Abs(before-0.4444) > 0.01 {
		t.Errorf("before = %v, paper reports ≈0.45", before)
	}
	after := Unfairness([]float64{1.0, 0.5, 2.0 / 3})
	if math.Abs(after-0.3333) > 0.01 {
		t.Errorf("after = %v, paper reports ≈0.33", after)
	}
	if after >= before {
		t.Error("collaboration must reduce unfairness in the paper example")
	}
}

func TestUnfairnessEdgeCases(t *testing.T) {
	if got := Unfairness(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := Unfairness([]float64{0.7}); got != 0 {
		t.Errorf("single = %v", got)
	}
	if got := Unfairness([]float64{0.5, 0.5, 0.5}); got != 0 {
		t.Errorf("uniform = %v", got)
	}
	if got := Unfairness([]float64{0, 1}); got != 1 {
		t.Errorf("max spread = %v, want 1", got)
	}
}

// Properties: U_ρ ∈ [0, max-min], symmetric under permutation, invariant
// under constant shifts.
func TestUnfairnessProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		rhos := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			rhos[i] = math.Abs(math.Mod(v, 1))
		}
		u := Unfairness(rhos)
		mn, mx := rhos[0], rhos[0]
		for _, r := range rhos {
			mn = math.Min(mn, r)
			mx = math.Max(mx, r)
		}
		if u < -1e-12 || u > mx-mn+1e-12 {
			return false
		}
		// Permutation invariance: reverse.
		rev := make([]float64, len(rhos))
		for i, r := range rhos {
			rev[len(rhos)-1-i] = r
		}
		if math.Abs(Unfairness(rev)-u) > 1e-12 {
			return false
		}
		// Shift invariance.
		shifted := make([]float64, len(rhos))
		for i, r := range rhos {
			shifted[i] = r + 0.25
		}
		return math.Abs(Unfairness(shifted)-u) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pairwiseUnfairness is Eq. 3 as written: the sum of |ρ_i − ρ_j| over all
// ordered pairs, divided by n(n − 1). It is the oracle for Unfairness's
// sorted formula.
func pairwiseUnfairness(rhos []float64) float64 {
	n := len(rhos)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += math.Abs(rhos[i] - rhos[j])
			}
		}
	}
	return sum / float64(n*(n-1))
}

// TestUnfairnessMatchesPairwise holds the sorted formula to the pairwise
// sum within 1e-10 relative, on the vectors the game produces — ratios
// assigned/total with many ties — and on the degenerate ones: all equal,
// only 0s and 1s.
func TestUnfairnessMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 3, 50, 500, 5000} {
		ratios := make([]float64, n)
		for i := range ratios {
			if i > 0 && rng.Intn(4) == 0 {
				ratios[i] = ratios[rng.Intn(i)] // a tie
				continue
			}
			total := 1 + rng.Intn(200)
			ratios[i] = Ratio(rng.Intn(total+1), total)
		}
		equal := make([]float64, n)
		binary := make([]float64, n)
		for i := range equal {
			equal[i] = 1.0 / 3
			binary[i] = float64(rng.Intn(2))
		}
		for name, rhos := range map[string][]float64{
			"ratios": ratios, "equal": equal, "binary": binary,
		} {
			orig := append([]float64(nil), rhos...)
			got, want := Unfairness(rhos), pairwiseUnfairness(rhos)
			if want == 0 && got != 0 || math.Abs(got-want) > 1e-10*want {
				t.Errorf("n=%d %s: sorted %v, pairwise %v", n, name, got, want)
			}
			for i := range rhos {
				if rhos[i] != orig[i] {
					t.Fatalf("n=%d %s: Unfairness reordered its input", n, name)
				}
			}
		}
	}
}

// TestUnfairnessScratchZeroAlloc pins the game's per-step use: a kept
// buffer is reused, and the call returns the same value as Unfairness.
func TestUnfairnessScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rhos := make([]float64, 500)
	for i := range rhos {
		rhos[i] = rng.Float64()
	}
	u, buf := UnfairnessScratch(rhos, nil)
	if u != Unfairness(rhos) {
		t.Fatalf("scratch variant %v, Unfairness %v", u, Unfairness(rhos))
	}
	allocs := testing.AllocsPerRun(20, func() {
		u, buf = UnfairnessScratch(rhos, buf)
	})
	if allocs != 0 {
		t.Fatalf("UnfairnessScratch with a grown buffer allocates %.1f times", allocs)
	}
}

func TestUUP(t *testing.T) {
	rhos := []float64{1.0, 0.5, 0.3}
	// UUP_0 = 1 − (0.5+0.3)/2 = 0.6
	if got := UUP(rhos, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("UUP_0 = %v", got)
	}
	// UUP_2 = 0.3 − (1+0.5)/2 = −0.45
	if got := UUP(rhos, 2); math.Abs(got+0.45) > 1e-12 {
		t.Errorf("UUP_2 = %v", got)
	}
	if got := UUP([]float64{0.8}, 0); got != 0.8 {
		t.Errorf("single-center UUP = %v", got)
	}
}

// The potential Φ = Σ UUP telescopes to zero for any ratio vector — the
// documented algebraic identity behind the paper's Lemma 1 discussion.
func TestMinRatioCenter(t *testing.T) {
	rhos := []float64{0.9, 0.2, 0.2, 0.5}
	got := MinRatioCenter(rhos, []model.CenterID{0, 1, 2, 3})
	if got != 1 {
		t.Errorf("MinRatioCenter = %d, want 1 (tie toward smaller ID)", got)
	}
	got = MinRatioCenter(rhos, []model.CenterID{0, 3})
	if got != 3 {
		t.Errorf("restricted MinRatioCenter = %d, want 3", got)
	}
}

func TestRatiosAndSolutionUnfairness(t *testing.T) {
	in := &model.Instance{
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(0, 0), Tasks: []model.TaskID{0, 1}},
			{ID: 1, Loc: geo.Pt(10, 0), Tasks: []model.TaskID{2}},
			{ID: 2, Loc: geo.Pt(20, 0)}, // no tasks → ρ = 1
		},
		Tasks: []model.Task{
			{ID: 0, Center: 0, Loc: geo.Pt(1, 0), Expiry: 10},
			{ID: 1, Center: 0, Loc: geo.Pt(2, 0), Expiry: 10},
			{ID: 2, Center: 1, Loc: geo.Pt(11, 0), Expiry: 10},
		},
		Workers: []model.Worker{{ID: 0, Home: 0, Loc: geo.Pt(0, 0), MaxT: 4}},
		Speed:   1,
		Bounds:  geo.NewRect(geo.Pt(0, 0), geo.Pt(30, 10)),
	}
	s := model.NewSolution(in)
	s.PerCenter[0].Routes = []model.Route{{Worker: 0, Center: 0, Tasks: []model.TaskID{0}}}
	rhos := Ratios(in, s)
	want := []float64{0.5, 0, 1}
	for i := range want {
		if math.Abs(rhos[i]-want[i]) > 1e-12 {
			t.Errorf("rho[%d] = %v, want %v", i, rhos[i], want[i])
		}
	}
	if got := SolutionUnfairness(in, s); math.Abs(got-Unfairness(want)) > 1e-12 {
		t.Errorf("SolutionUnfairness = %v", got)
	}
}

func TestComputeUtilization(t *testing.T) {
	in := &model.Instance{
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(0, 0), Tasks: []model.TaskID{0, 1}, Workers: []model.WorkerID{0, 1}},
			{ID: 1, Loc: geo.Pt(100, 0), Tasks: []model.TaskID{2}},
		},
		Tasks: []model.Task{
			{ID: 0, Center: 0, Loc: geo.Pt(1, 0), Expiry: 100},
			{ID: 1, Center: 0, Loc: geo.Pt(2, 0), Expiry: 100},
			{ID: 2, Center: 1, Loc: geo.Pt(101, 0), Expiry: 100},
		},
		Workers: []model.Worker{
			{ID: 0, Home: 0, Loc: geo.Pt(0, 0), MaxT: 4},
			{ID: 1, Home: 0, Loc: geo.Pt(0, 0), MaxT: 4},
		},
		Speed:  1,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 10)),
	}
	s := model.NewSolution(in)
	s.PerCenter[0].Routes = []model.Route{{Worker: 0, Center: 0, Tasks: []model.TaskID{0, 1}}}
	s.PerCenter[1].Routes = []model.Route{{Worker: 1, Center: 1, Tasks: []model.TaskID{2}}}
	s.Transfers = []model.Transfer{{Src: 0, Dst: 1, Worker: 1}}

	u := ComputeUtilization(in, s)
	if u.Workers != 2 || u.Active != 2 || u.Dispatched != 1 {
		t.Fatalf("counts: %+v", u)
	}
	if math.Abs(u.TasksPerActive-1.5) > 1e-12 {
		t.Errorf("TasksPerActive = %v", u.TasksPerActive)
	}
	// Worker 0: 0 -> c0 (0) -> t0 (1) -> t1 (1) = 2h. Worker 1: 100 to c1 +
	// 1 = 101h.
	if math.Abs(u.MaxRouteHours-101) > 1e-9 {
		t.Errorf("MaxRouteHours = %v", u.MaxRouteHours)
	}
	if math.Abs(u.MeanRouteHours-(2+101)/2.0) > 1e-9 {
		t.Errorf("MeanRouteHours = %v", u.MeanRouteHours)
	}
	if math.Abs(u.CapacityUsed-3.0/8.0) > 1e-12 {
		t.Errorf("CapacityUsed = %v", u.CapacityUsed)
	}
}

func TestComputeUtilizationEmpty(t *testing.T) {
	in := &model.Instance{
		Centers: []model.Center{{ID: 0, Loc: geo.Pt(0, 0)}},
		Speed:   1,
		Bounds:  geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)),
	}
	s := model.NewSolution(in)
	u := ComputeUtilization(in, s)
	if u.Active != 0 || u.TasksPerActive != 0 || u.CapacityUsed != 0 {
		t.Fatalf("empty utilization: %+v", u)
	}
}
