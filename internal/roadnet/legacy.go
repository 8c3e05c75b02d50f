package roadnet

import (
	"container/heap"
	"math"
	"sync"

	"imtao/internal/geo"
)

// LegacyNetwork is the pre-oracle road network implementation — a global
// mutex in front of a map cache, full-cache eviction on overflow, and boxed
// container/heap Dijkstra per miss — frozen verbatim as the independent
// reference the oracle property tests and microbenchmarks compare against.
// It is not wired into the pipeline; use Network.
type LegacyNetwork struct {
	bounds       geo.Rect
	nx, ny       int
	stepX, stepY float64
	speed        float64
	congestion   []float64

	mu       sync.Mutex
	cache    map[int][]float64
	cacheCap int
}

// NewLegacy builds the baseline network with the same geometry semantics as
// New. Benchmark use only.
func NewLegacy(bounds geo.Rect, nx, ny int, speed float64) (*LegacyNetwork, error) {
	if _, err := New(bounds, nx, ny, speed); err != nil {
		return nil, err
	}
	n := &LegacyNetwork{
		bounds: bounds,
		nx:     nx, ny: ny,
		stepX:      bounds.Width() / float64(nx-1),
		stepY:      bounds.Height() / float64(ny-1),
		speed:      speed,
		congestion: make([]float64, nx*ny),
		cache:      make(map[int][]float64),
		cacheCap:   512,
	}
	for i := range n.congestion {
		n.congestion[i] = 1
	}
	return n, nil
}

// SetCongestionDisk mirrors Network.SetCongestionDisk.
func (n *LegacyNetwork) SetCongestionDisk(p geo.Point, radius, factor float64) {
	if factor < 1 {
		factor = 1
	}
	for id := 0; id < n.nx*n.ny; id++ {
		if n.nodeLoc(id).Dist(p) <= radius {
			n.congestion[id] = factor
		}
	}
	n.mu.Lock()
	n.cache = make(map[int][]float64)
	n.mu.Unlock()
}

func (n *LegacyNetwork) nodeLoc(id int) geo.Point {
	x, y := id%n.nx, id/n.nx
	return geo.Pt(n.bounds.Min.X+float64(x)*n.stepX, n.bounds.Min.Y+float64(y)*n.stepY)
}

func (n *LegacyNetwork) nearestNode(p geo.Point) int {
	x := int(math.Round((p.X - n.bounds.Min.X) / n.stepX))
	y := int(math.Round((p.Y - n.bounds.Min.Y) / n.stepY))
	if x < 0 {
		x = 0
	}
	if x >= n.nx {
		x = n.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= n.ny {
		y = n.ny - 1
	}
	return y*n.nx + x
}

// TravelTime is the baseline query path: snap, global-mutex cache lookup,
// boxed-heap Dijkstra on miss.
func (n *LegacyNetwork) TravelTime(a, b geo.Point) float64 {
	sa, sb := n.nearestNode(a), n.nearestNode(b)
	snap := (a.Dist(n.nodeLoc(sa)) + b.Dist(n.nodeLoc(sb))) / n.speed
	if sa == sb {
		return snap
	}
	return snap + n.shortest(sa)[sb]
}

func (n *LegacyNetwork) shortest(src int) []float64 {
	n.mu.Lock()
	if d, ok := n.cache[src]; ok {
		n.mu.Unlock()
		return d
	}
	n.mu.Unlock()
	dist := n.dijkstra(src)
	n.mu.Lock()
	if len(n.cache) >= n.cacheCap {
		n.cache = make(map[int][]float64) // simple full eviction
	}
	n.cache[src] = dist
	n.mu.Unlock()
	return dist
}

func (n *LegacyNetwork) dijkstra(src int) []float64 {
	total := n.nx * n.ny
	dist := make([]float64, total)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &legacyHeap{{id: src, d: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(legacyEntry)
		if cur.d > dist[cur.id] {
			continue
		}
		x, y := cur.id%n.nx, cur.id/n.nx
		for _, nb := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
			if nb[0] < 0 || nb[0] >= n.nx || nb[1] < 0 || nb[1] >= n.ny {
				continue
			}
			nid := nb[1]*n.nx + nb[0]
			step := n.stepX
			if nb[0] == x {
				step = n.stepY
			}
			factor := math.Max(n.congestion[cur.id], n.congestion[nid])
			nd := cur.d + step*factor/n.speed
			if nd < dist[nid] {
				dist[nid] = nd
				heap.Push(pq, legacyEntry{id: nid, d: nd})
			}
		}
	}
	return dist
}

type legacyEntry struct {
	id int
	d  float64
}

type legacyHeap []legacyEntry

func (h legacyHeap) Len() int            { return len(h) }
func (h legacyHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(legacyEntry)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
