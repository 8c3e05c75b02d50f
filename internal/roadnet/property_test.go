package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"imtao/internal/geo"
)

// randomCongestion shapes a reproducible random congestion field: a handful
// of disks with factors in [1, 5).
func randomCongestion(n *Network, rng *rand.Rand) {
	for i := 0; i < 4; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		n.SetCongestionDisk(p, 5+rng.Float64()*15, 1+rng.Float64()*4)
	}
}

// TravelTime must be exactly symmetric — not approximately. The oracle
// serves both directions of a pair from one canonical table (orient), so any
// asymmetry would be a table-selection bug that breaks the bit-identical
// determinism contract of the parallel pipeline.
func TestPropertySymmetryExact(t *testing.T) {
	n := grid(t, 21, 21, 10)
	rng := rand.New(rand.NewSource(301))
	randomCongestion(n, rng)
	// Pin a few sources so the test also crosses the pinned/unpinned orient
	// branch.
	n.PrecomputeSources([]geo.Point{geo.Pt(10, 10), geo.Pt(90, 90)})
	for i := 0; i < 500; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ab, ba := n.TravelTime(a, b), n.TravelTime(b, a)
		if ab != ba {
			t.Fatalf("TravelTime not bit-symmetric: %v vs %v for %v<->%v", ab, ba, a, b)
		}
	}
}

// Road travel between node-aligned points can never beat the straight line
// at base speed: every edge is at least as long as its Euclidean projection
// and congestion only slows it further.
func TestPropertyDominatesEuclideanExact(t *testing.T) {
	n := grid(t, 15, 15, 20)
	rng := rand.New(rand.NewSource(302))
	randomCongestion(n, rng)
	for i := 0; i < 300; i++ {
		a := n.NodeLoc(rng.Intn(n.Nodes()))
		b := n.NodeLoc(rng.Intn(n.Nodes()))
		road := n.TravelTime(a, b)
		straight := a.Dist(b) / 20
		if road < straight-1e-9 {
			t.Fatalf("road %v beats straight %v for nodes %v->%v", road, straight, a, b)
		}
	}
}

// Node-to-node road distances form a true metric, so the triangle inequality
// must hold exactly (up to float summation noise) under any congestion
// field. The snap legs of off-node points can violate it, which is why this
// property is stated on node-aligned points.
func TestPropertyTriangleUnderRandomCongestion(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		n := grid(t, 13, 13, 15)
		rng := rand.New(rand.NewSource(400 + seed))
		randomCongestion(n, rng)
		for i := 0; i < 200; i++ {
			a := n.NodeLoc(rng.Intn(n.Nodes()))
			b := n.NodeLoc(rng.Intn(n.Nodes()))
			c := n.NodeLoc(rng.Intn(n.Nodes()))
			ac := n.TravelTime(a, c)
			detour := n.TravelTime(a, b) + n.TravelTime(b, c)
			if ac > detour+1e-9 {
				t.Fatalf("seed %d: triangle violated: d(a,c)=%v > %v via %v", seed, ac, detour, b)
			}
		}
	}
}

// The oracle must compute the same distances as the frozen legacy
// implementation — Dial's algorithm and the CSR adjacency are a faster
// search, not a different metric.
func TestPropertyOracleMatchesLegacy(t *testing.T) {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	n, err := New(bounds, 17, 17, 12)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLegacy(bounds, 17, 17, 12)
	if err != nil {
		t.Fatal(err)
	}
	n.SetCongestionDisk(geo.Pt(40, 60), 25, 3.5)
	l.SetCongestionDisk(geo.Pt(40, 60), 25, 3.5)
	rng := rand.New(rand.NewSource(303))
	for i := 0; i < 300; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		got, want := n.TravelTime(a, b), l.TravelTime(a, b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("oracle %v != legacy %v for %v->%v", got, want, a, b)
		}
	}
}

// The central invariant of the oracle: a point search returns exactly the
// entry the full table from the same source holds — bit for bit, because a
// point search is a prefix of the full search and settled labels never
// change. Covered on random-congestion grids (square and not), on the Dial
// path and the forced heap fallback, for pinned and unpinned orientations,
// in both query directions.
func TestPointSearchMatchesFullTable(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, heap := range []bool{false, true} {
			rng := rand.New(rand.NewSource(500 + seed))
			n := grid(t, 9+rng.Intn(15), 9+rng.Intn(15), 10)
			randomCongestion(n, rng)
			if heap {
				n.buckets = 0
			}
			n.PrecomputeSources([]geo.Point{
				n.NodeLoc(rng.Intn(n.Nodes())), n.NodeLoc(rng.Intn(n.Nodes())),
			})
			tables := map[int32][]float64{}
			for i := 0; i < 400; i++ {
				a, b := int32(rng.Intn(n.Nodes())), int32(rng.Intn(n.Nodes()))
				if a == b {
					continue
				}
				src, dst := n.orient(a, b)
				if tables[src] == nil {
					tables[src] = n.fullTable(src)
				}
				want := tables[src][dst]
				ab, ba := n.TravelTimeNodes(a, 0, b, 0), n.TravelTimeNodes(b, 0, a, 0)
				if ab != want || ba != want {
					t.Fatalf("seed %d heap=%v: %d<->%d answered %v / %v, full table from %d holds %v",
						seed, heap, a, b, ab, ba, src, want)
				}
			}
		}
	}
}

// Scratch stamps wrap after 2^31 searches; a search across the wrap must
// not read labels left over from earlier epochs.
func TestSearchEpochWrap(t *testing.T) {
	n := grid(t, 13, 13, 10)
	randomCongestion(n, rand.New(rand.NewSource(506)))
	s := &searchScratch{}
	n.search(0, -1, s) // size the scratch
	s.epoch = math.MaxInt32 - 3
	full := n.fullTable(0)
	for dst := int32(1); dst < 12; dst++ {
		if got, _ := n.search(0, dst, s); got != full[dst] {
			t.Fatalf("epoch %d: search to %d = %v, full table %v", s.epoch, dst, got, full[dst])
		}
	}
}

// Queries from many goroutines at once must give exactly the serial
// answers, and the counters must account for every search: one full search
// per pinned source, one point search per unpinned query.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	n := grid(t, 31, 31, 10)
	rng := rand.New(rand.NewSource(507))
	randomCongestion(n, rng)
	n.PrecomputeSources([]geo.Point{geo.Pt(50, 50), geo.Pt(10, 90)})
	type pair struct{ a, b int32 }
	pairs := make([]pair, 300)
	want := make([]float64, len(pairs))
	unpinned := 0
	for i := range pairs {
		a, b := int32(rng.Intn(n.Nodes())), int32(rng.Intn(n.Nodes()))
		if a == b {
			b = (a + 1) % int32(n.Nodes())
		}
		pairs[i] = pair{a, b}
		want[i] = n.TravelTimeNodes(a, 0, b, 0)
		if src, _ := n.orient(a, b); n.pinnedIdx[src] < 0 {
			unpinned++
		}
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pairs {
				i := (k*7 + g*13) % len(pairs) // a different order per goroutine
				p := pairs[i]
				a, b := p.a, p.b
				if g%2 == 1 {
					a, b = b, a
				}
				if got := n.TravelTimeNodes(a, 0, b, 0); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d: %d<->%d = %v, serial %v", g, a, b, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := n.Stats()
	if wantPoints := int64(unpinned * (goroutines + 1)); st.PointSearches != wantPoints {
		t.Fatalf("point searches %d, want %d", st.PointSearches, wantPoints)
	}
	if full := st.DijkstraRuns - st.PointSearches; full != int64(st.Pinned) || st.Pinned != 2 {
		t.Fatalf("full searches %d for %d pinned sources", full, st.Pinned)
	}
	if st.Settled < st.PointSearches || st.Evictions != 0 {
		t.Fatalf("settled %d for %d point searches, evictions %d",
			st.Settled, st.PointSearches, st.Evictions)
	}
}

// Pinned tables answer without a search, are idempotent to re-pin, and are
// recomputed — not dropped — by congestion reshapes.
func TestPrecomputeSources(t *testing.T) {
	n := grid(t, 21, 21, 10)
	ctr := geo.Pt(50, 50)
	n.PrecomputeSources([]geo.Point{ctr})
	n.PrecomputeSources([]geo.Point{ctr}) // idempotent
	if s := n.Stats(); s.Pinned != 1 || s.DijkstraRuns != 1 {
		t.Fatalf("pin not idempotent: pinned=%d runs=%d", s.Pinned, s.DijkstraRuns)
	}
	far := geo.Pt(95, 95)
	before := n.TravelTime(ctr, far)
	if s := n.Stats(); s.PointSearches != 0 {
		t.Fatalf("pinned query ran %d point searches", s.PointSearches)
	}
	// Congestion reshape recomputes the pinned table in place. Congest the
	// whole grid so no free detour can hide a stale table.
	n.SetCongestionDisk(geo.Pt(50, 50), 200, 4)
	after := n.TravelTime(ctr, far)
	if s := n.Stats(); s.Pinned != 1 {
		t.Fatalf("pin lost across congestion reshape: pinned=%d", s.Pinned)
	}
	if after <= before {
		t.Fatalf("pinned table not recomputed: %v -> %v", before, after)
	}
	// The pinned value must equal a cold computation of the same pair.
	n2 := grid(t, 21, 21, 10)
	n2.SetCongestionDisk(geo.Pt(50, 50), 200, 4)
	if want := n2.TravelTime(ctr, far); after != want {
		t.Fatalf("pinned table diverged from cold computation: %v vs %v", after, want)
	}
}

// The heap fallback must agree with the Dial search: force it by asking for
// a congestion ratio beyond the ring cap.
func TestHeapFallbackMatchesDial(t *testing.T) {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	dial, err := New(bounds, 15, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := New(bounds, 15, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dial.buckets == 0 {
		t.Fatal("baseline network unexpectedly on the heap path")
	}
	heap.buckets = 0 // force the typed-heap fallback on identical weights
	rng := rand.New(rand.NewSource(305))
	for i := 0; i < 200; i++ {
		a := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		b := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		if d, h := dial.TravelTime(a, b), heap.TravelTime(a, b); d != h {
			t.Fatalf("dial %v != heap %v for %v->%v", d, h, a, b)
		}
	}
	// A pathological congestion ratio must select the heap automatically.
	extreme, err := New(bounds, 5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	extreme.SetCongestion(geo.Pt(50, 50), float64(2*maxDialBuckets))
	if extreme.buckets != 0 {
		t.Fatalf("extreme congestion ratio kept the Dial ring: %d buckets", extreme.buckets)
	}
	if d := extreme.TravelTime(geo.Pt(0, 0), geo.Pt(100, 100)); math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("heap fallback produced %v", d)
	}
}
