package roadnet

import (
	"testing"

	"imtao/internal/geo"
)

// The benchmarks below measure the oracle's query paths on the 64×64 grid of
// the scale presets: a pinned table read, a short point search (the typical
// route leg inside one Voronoi cell), a cross-grid point search (the worst
// case: it settles most of the grid), and a full table build — plus the
// frozen LegacyNetwork's cached read and full search for reference.

const benchGrid = 64

func benchBounds() geo.Rect { return geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000)) }

var benchSink float64

func benchNet(b *testing.B) *Network {
	b.Helper()
	n, err := New(benchBounds(), benchGrid, benchGrid, 1000)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// Pinned tables answer with one read — the first leg of every route.
func BenchmarkTravelTimeNodesPinned(b *testing.B) {
	n := benchNet(b)
	src := geo.Pt(123, 456)
	n.PrecomputeSources([]geo.Point{src})
	aN, aL := n.SnapNode(src)
	cN, cL := n.SnapNode(geo.Pt(1830, 1711))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.TravelTimeNodes(aN, aL, cN, cL)
	}
}

func BenchmarkPointSearchShort(b *testing.B) {
	n := benchNet(b)
	aN, aL := n.SnapNode(geo.Pt(1000, 1000))
	cN, cL := n.SnapNode(geo.Pt(1070, 1040))
	n.TravelTimeNodes(aN, aL, cN, cL) // size the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.TravelTimeNodes(aN, aL, cN, cL)
	}
}

func BenchmarkPointSearchCross(b *testing.B) {
	n := benchNet(b)
	aN, aL := n.SnapNode(geo.Pt(123, 456))
	cN, cL := n.SnapNode(geo.Pt(1830, 1711))
	n.TravelTimeNodes(aN, aL, cN, cL) // size the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.TravelTimeNodes(aN, aL, cN, cL)
	}
}

// Concurrent short point searches: each goroutine draws its own pooled
// scratch, so throughput should scale with cores.
func BenchmarkPointSearchShortParallel(b *testing.B) {
	n := benchNet(b)
	aN, aL := n.SnapNode(geo.Pt(1000, 1000))
	cN, cL := n.SnapNode(geo.Pt(1070, 1040))
	n.TravelTimeNodes(aN, aL, cN, cL) // size one pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		for pb.Next() {
			sink += n.TravelTimeNodes(aN, aL, cN, cL)
		}
		_ = sink
	})
}

func BenchmarkFullTable(b *testing.B) {
	n := benchNet(b)
	src := int32(n.nearestNode(geo.Pt(123, 456)))
	n.fullTable(src) // size the pooled scratch; each build then allocates only its table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.fullTable(src)[0]
	}
}

func BenchmarkTravelTimeHitLegacy(b *testing.B) {
	n, err := NewLegacy(benchBounds(), benchGrid, benchGrid, 1000)
	if err != nil {
		b.Fatal(err)
	}
	a, c := geo.Pt(123, 456), geo.Pt(1830, 1711)
	n.TravelTime(a, c) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.TravelTime(a, c)
	}
}

func BenchmarkTravelTimeMissLegacy(b *testing.B) {
	n, err := NewLegacy(benchBounds(), benchGrid, benchGrid, 1000)
	if err != nil {
		b.Fatal(err)
	}
	a, c := geo.Pt(123, 456), geo.Pt(1830, 1711)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.mu.Lock()
		n.cache = make(map[int][]float64)
		n.mu.Unlock()
		benchSink = n.TravelTime(a, c)
	}
}
