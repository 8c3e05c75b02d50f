package roadnet

import (
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// TestTravelTimeRefHitZeroAlloc pins the oracle queries that dominate every
// assigner inner loop: model.Instance.TravelTimeRef with memoized snaps.
// With the center pinned, the center legs are one table read and the
// task↔worker leg is a point search on pooled scratch; neither may touch the
// heap (DESIGN.md §13).
func TestTravelTimeRefHitZeroAlloc(t *testing.T) {
	n, err := New(benchBounds(), 16, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{
		Speed:  1,
		Bounds: benchBounds(),
		Metric: n,
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(123, 456)},
		},
		Tasks: []model.Task{
			{ID: 0, Center: 0, Loc: geo.Pt(1830, 1711), Expiry: 1e6},
		},
		Workers: []model.Worker{
			{ID: 0, Home: 0, Loc: geo.Pt(900, 300), MaxT: 4},
		},
	}
	in.PrepareMetric()
	n.PrecomputeSources([]geo.Point{in.Centers[0].Loc})
	cref, tref, wref := in.CenterRef(0), in.TaskRef(0), in.WorkerRef(0)
	if cref.Node < 0 || tref.Node < 0 || wref.Node < 0 {
		t.Fatal("PrepareMetric did not snap the entities")
	}
	c, task, w := in.Centers[0].Loc, in.Tasks[0].Loc, in.Workers[0].Loc
	// Warm the scratch pool (the first point search sizes its scratch).
	in.TravelTimeRef(task, tref, w, wref)

	pinned := testing.AllocsPerRun(100, func() {
		benchSink = in.TravelTimeRef(c, cref, task, tref)
		benchSink += in.TravelTimeRef(w, wref, c, cref)
	})
	if pinned != 0 {
		t.Fatalf("pinned-table read allocates: %.2f allocs/query pair (want 0)", pinned)
	}
	if raceEnabled {
		t.Log("point-search allocation not measured: -race makes sync.Pool drop scratch at random")
		return
	}
	before := n.Stats().PointSearches
	point := testing.AllocsPerRun(100, func() {
		benchSink = in.TravelTimeRef(task, tref, w, wref)
	})
	if point != 0 {
		t.Fatalf("point search allocates: %.2f allocs/query (want 0)", point)
	}
	// AllocsPerRun makes one warm-up call before its 100 measured ones.
	if got := n.Stats().PointSearches - before; got != 101 {
		t.Fatalf("task↔worker leg ran %d point searches, want 101", got)
	}
}
