package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/routing"
	"imtao/internal/workload"
)

func grid(t *testing.T, nx, ny int, speed float64) *Network {
	t.Helper()
	n, err := New(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), nx, ny, speed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewErrors(t *testing.T) {
	b := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	if _, err := New(b, 1, 5, 10); err == nil {
		t.Error("nx<2 must fail")
	}
	if _, err := New(b, 5, 5, 0); err == nil {
		t.Error("zero speed must fail")
	}
	if _, err := New(geo.Rect{}, 5, 5, 10); err == nil {
		t.Error("empty bounds must fail")
	}
}

func TestTravelTimeManhattanOnGrid(t *testing.T) {
	n := grid(t, 11, 11, 10) // 10-unit steps, speed 10 → 1h per step
	// Node-aligned points: pure Manhattan distance.
	got := n.TravelTime(geo.Pt(0, 0), geo.Pt(30, 40))
	if math.Abs(got-7) > 1e-9 {
		t.Fatalf("TravelTime = %v, want 7 (3+4 steps at 1h)", got)
	}
	// Symmetry.
	if back := n.TravelTime(geo.Pt(30, 40), geo.Pt(0, 0)); math.Abs(back-got) > 1e-9 {
		t.Fatalf("asymmetric metric: %v vs %v", got, back)
	}
	// Identity (same snap node): only the snap legs remain.
	if d := n.TravelTime(geo.Pt(1, 1), geo.Pt(2, 2)); d <= 0 || d > 1 {
		t.Fatalf("near-identity time = %v", d)
	}
	if d := n.TravelTime(geo.Pt(50, 50), geo.Pt(50, 50)); d != 0 {
		t.Fatalf("self time = %v", d)
	}
}

func TestTravelTimeDominatesEuclidean(t *testing.T) {
	n := grid(t, 21, 21, 10)
	rng := rand.New(rand.NewSource(211))
	for i := 0; i < 200; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		road := n.TravelTime(a, b)
		straight := a.Dist(b) / 10
		// Road travel can never beat straight-line at the same speed
		// (allowing snap rounding slack of one cell).
		if road < straight-(100.0/20)/10 {
			t.Fatalf("road %v beats straight %v for %v->%v", road, straight, a, b)
		}
	}
}

func TestCongestionSlowsPaths(t *testing.T) {
	n := grid(t, 11, 11, 10)
	before := n.TravelTime(geo.Pt(0, 50), geo.Pt(100, 50))
	// Congest a wall through the middle.
	n.SetCongestionDisk(geo.Pt(50, 50), 12, 5)
	after := n.TravelTime(geo.Pt(0, 50), geo.Pt(100, 50))
	if after <= before {
		t.Fatalf("congestion did not slow the path: %v -> %v", before, after)
	}
	// Dijkstra may route around the congestion: after must not exceed the
	// fully congested straight path.
	if after > before*5+1e-9 {
		t.Fatalf("slower than the worst case: %v", after)
	}
	// Point congestion variant resets cache and applies.
	n2 := grid(t, 11, 11, 10)
	n2.SetCongestion(geo.Pt(50, 50), 4)
	if n2.congestion[n2.nearestNode(geo.Pt(50, 50))] != 4 {
		t.Fatal("SetCongestion did not apply")
	}
	// Factors below 1 clamp to 1.
	n2.SetCongestion(geo.Pt(50, 50), 0.2)
	if n2.congestion[n2.nearestNode(geo.Pt(50, 50))] != 1 {
		t.Fatal("factor clamp failed")
	}
}

func TestTriangleInequalityApprox(t *testing.T) {
	n := grid(t, 15, 15, 20)
	rng := rand.New(rand.NewSource(212))
	slack := 2 * (100.0 / 14) / 20 // two snap legs of one cell
	for i := 0; i < 100; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		c := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		if n.TravelTime(a, c) > n.TravelTime(a, b)+n.TravelTime(b, c)+slack {
			t.Fatalf("triangle inequality badly violated at %v %v %v", a, b, c)
		}
	}
}

// An answer is a function of the pair alone: repeating a query, or running
// other queries in between, never changes it.
func TestCacheConsistency(t *testing.T) {
	n := grid(t, 11, 11, 10)
	a, b := geo.Pt(5, 5), geo.Pt(95, 95)
	first := n.TravelTime(a, b)
	for i := 0; i < 10; i++ {
		if got := n.TravelTime(a, b); got != first {
			t.Fatalf("repeated query differs: %v vs %v", got, first)
		}
	}
	rng := rand.New(rand.NewSource(213))
	for i := 0; i < 30; i++ {
		n.TravelTime(geo.Pt(rng.Float64()*100, rng.Float64()*100), b)
	}
	if got := n.TravelTime(a, b); got != first {
		t.Fatalf("query differs after unrelated searches: %v vs %v", got, first)
	}
}

// End to end: the whole IMTAO pipeline runs on a road network and
// collaboration still helps. This is the §V-E style robustness check for
// the travel-model assumption.
func TestIMTAOOnRoadNetwork(t *testing.T) {
	p := workload.Defaults(workload.SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 150, 40, 8
	p.Expiry = 1.5 // road detours need more slack than straight lines
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(raw.Bounds, 41, 41, p.Speed)
	if err != nil {
		t.Fatal(err)
	}
	raw.Metric = net
	in, _, err := core.Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	woc, err := core.Run(in, core.Config{Method: core.Method{Assigner: core.Seq, Collab: core.WoC}})
	if err != nil {
		t.Fatal(err)
	}
	bdc, err := core.Run(in, core.Config{Method: core.Method{Assigner: core.Seq, Collab: core.BDC}})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.SolutionFeasible(in, bdc.Solution); err != nil {
		t.Fatal(err)
	}
	if woc.Assigned == 0 {
		t.Fatal("nothing assigned under the road metric; expiry too tight?")
	}
	if bdc.Assigned < woc.Assigned {
		t.Fatalf("BDC %d < w/o-C %d under road travel", bdc.Assigned, woc.Assigned)
	}
	// The road metric must actually bind: assignment under roads can't
	// exceed the straight-line one.
	inStraight := in.Clone()
	inStraight.Metric = nil
	straight, err := core.Run(inStraight, core.Config{Method: core.Method{Assigner: core.Seq, Collab: core.WoC}})
	if err != nil {
		t.Fatal(err)
	}
	if woc.Assigned > straight.Assigned {
		t.Fatalf("road travel (%d) beat straight-line (%d)?!", woc.Assigned, straight.Assigned)
	}
}
