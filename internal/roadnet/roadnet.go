// Package roadnet provides a grid road network with shortest-path travel
// times — a drop-in model.TravelMetric that replaces the paper's
// straight-line travel model with street-constrained movement.
//
// The network is a 4-connected lattice over the service area. Each edge
// carries a travel time derived from the base speed and an optional
// per-cell congestion factor; a query snaps both endpoints to their nearest
// lattice nodes, reads the road distance between the nodes from the
// distance oracle, and adds the snap legs at base speed. With congestion 1
// everywhere the metric is the Manhattan-style road distance, always ≥ the
// Euclidean one.
//
// # Distance oracle
//
// Queries are served by a distance oracle (DESIGN.md §10):
//
//   - The adjacency is a flat CSR array built once at New/SetCongestion
//     time, so the search touches no maps and no interface values.
//   - Searches run a monotone bucket queue (Dial's algorithm) that exploits
//     the lattice's bounded edge-weight ratio; a typed binary heap covers
//     pathological congestion ratios.
//   - PrecomputeSources pins full distance tables for hot sources (center
//     locations, typically); a pinned pair is one table read.
//   - Every other pair is a point search: the same search from the same
//     source, stopped the moment the destination settles. Settled labels
//     never change, so the answer is bit-for-bit the full table's entry.
//     Working memory is epoch-stamped pooled scratch, so a point search
//     allocates nothing and no table is ever cached or evicted.
//   - The metric is symmetric, so either endpoint can be the source. The
//     source is a pure function of the two endpoint nodes and the pinned
//     set (pinned endpoint first, then the smaller node id), so a query and
//     its reverse read the same labels and results stay bit-identical at
//     any parallelism.
package roadnet

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"imtao/internal/geo"
	"imtao/internal/obs"
)

// traceHook pairs a tracer with the span every search parents to; held
// behind one pointer so queries load both with a single atomic read.
type traceHook struct {
	tr     *obs.Tracer
	parent obs.SpanID
}

// Oracle counters, shared by every Network in the process (the pipeline
// normally runs one). Per-network numbers are available via Stats.
var (
	mCacheHits = obs.Default.Counter("imtao_roadnet_cache_hits_total",
		"queries answered by a pinned distance-table read")
	mDijkstraRuns = obs.Default.Counter("imtao_roadnet_dijkstra_runs_total",
		"full shortest-path searches executed (pinned tables and their "+
			"recomputation on congestion reshapes)")
	mPointSearches = obs.Default.Counter("imtao_roadnet_point_searches_total",
		"early-exit searches answering an unpinned node pair")
	mSettledNodes = obs.Default.Counter("imtao_roadnet_settled_nodes_total",
		"nodes settled by point searches; divided by point searches, the "+
			"mean search size")
	mPinnedSources = obs.Default.Gauge("imtao_roadnet_pinned_sources",
		"sources pinned by PrecomputeSources (resident distance tables)")
	mDijkstraSeconds = obs.Default.Quantile("imtao_roadnet_dijkstra_seconds",
		"wall time of one full shortest-path search; point searches are "+
			"not sampled")
)

// Network is an immutable-after-build grid road network with a distance
// oracle. Build one with New, optionally shape congestion with
// SetCongestion and pin hot sources with PrecomputeSources, then hand it to
// model.Instance.Metric. TravelTime and TravelTimeNodes are safe for
// concurrent use; the mutators (SetCongestion*, PrecomputeSources) are not —
// reshape only between runs.
type Network struct {
	bounds       geo.Rect
	nx, ny       int // nodes per axis
	stepX, stepY float64
	speed        float64
	invSpeed     float64 // 1/speed — the hot path multiplies, never divides
	// congestion[node] ≥ 1 multiplies the time of edges incident to the
	// node (max of the two endpoints is used per edge).
	congestion []float64

	// CSR adjacency, rebuilt by New and the SetCongestion mutators. adjTime
	// holds the edge travel time in hours, so the search does no arithmetic
	// beyond one addition per relaxation.
	rowStart []int32
	adjNode  []int32
	adjTime  []float64
	minEdge  float64 // smallest edge time — the Dial bucket width
	buckets  int     // Dial ring size; 0 selects the binary-heap fallback

	scratch sync.Pool // *searchScratch

	// trace, when non-nil, parents a "dijkstra" span on every full
	// shortest-path search (pinned-table builds). Stored atomically so
	// SetTrace is safe against concurrent queries.
	trace atomic.Pointer[traceHook]

	// Pinned sources (PrecomputeSources): always-resident distance tables,
	// looked up without locks. pinnedIdx[node] indexes pinnedDist, -1 when
	// the node is not pinned.
	pinnedIdx  []int32
	pinnedDist [][]float64
	pinnedSrcs []int32 // pinned nodes in first-registration order

	// Search counters behind Stats.
	fullSearches  atomic.Int64
	pointSearches atomic.Int64
	settledNodes  atomic.Int64
	uniqueSources atomic.Int64
	searched      []atomic.Bool // node → ever a search source
}

// maxDialBuckets caps the Dial ring. A ring needs maxEdge/minEdge buckets;
// beyond this the congestion ratio is pathological and the typed binary heap
// is the better search.
const maxDialBuckets = 1 << 14

// New builds a grid network with nx × ny nodes over bounds, travelling at
// the given base speed (distance units per hour).
func New(bounds geo.Rect, nx, ny int, speed float64) (*Network, error) {
	if nx < 2 || ny < 2 {
		return nil, errors.New("roadnet: need at least a 2x2 grid")
	}
	if speed <= 0 {
		return nil, errors.New("roadnet: speed must be positive")
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, errors.New("roadnet: bounds must have positive area")
	}
	n := &Network{
		bounds: bounds,
		nx:     nx, ny: ny,
		stepX:      bounds.Width() / float64(nx-1),
		stepY:      bounds.Height() / float64(ny-1),
		speed:      speed,
		invSpeed:   1 / speed,
		congestion: make([]float64, nx*ny),
	}
	for i := range n.congestion {
		n.congestion[i] = 1
	}
	n.pinnedIdx = make([]int32, nx*ny)
	for i := range n.pinnedIdx {
		n.pinnedIdx[i] = -1
	}
	n.searched = make([]atomic.Bool, nx*ny)
	n.scratch.New = func() any { return &searchScratch{} }
	n.rebuild()
	return n, nil
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.nx * n.ny }

// NodeLoc returns the location of node id.
func (n *Network) NodeLoc(id int) geo.Point {
	x, y := id%n.nx, id/n.nx
	return geo.Pt(n.bounds.Min.X+float64(x)*n.stepX, n.bounds.Min.Y+float64(y)*n.stepY)
}

// rebuild derives the CSR adjacency from the current congestion field and
// sizes the Dial ring. Called by New and the SetCongestion mutators.
func (n *Network) rebuild() {
	total := n.Nodes()
	if n.rowStart == nil {
		n.rowStart = make([]int32, total+1)
		// 4-connected lattice: interior nodes have 4 edges; the exact count
		// is 2·(nx·(ny−1) + ny·(nx−1)) directed entries.
		edges := 2 * (n.nx*(n.ny-1) + n.ny*(n.nx-1))
		n.adjNode = make([]int32, edges)
		n.adjTime = make([]float64, edges)
	}
	minEdge, maxEdge := math.Inf(1), 0.0
	e := int32(0)
	for id := 0; id < total; id++ {
		n.rowStart[id] = e
		x, y := id%n.nx, id/n.nx
		cu := n.congestion[id]
		// Fixed neighbour order (left, right, down, up) keeps every search
		// fully deterministic.
		if x > 0 {
			e = n.addEdge(e, id, id-1, n.stepX, cu)
		}
		if x < n.nx-1 {
			e = n.addEdge(e, id, id+1, n.stepX, cu)
		}
		if y > 0 {
			e = n.addEdge(e, id, id-n.nx, n.stepY, cu)
		}
		if y < n.ny-1 {
			e = n.addEdge(e, id, id+n.nx, n.stepY, cu)
		}
		for k := n.rowStart[id]; k < e; k++ {
			w := n.adjTime[k]
			if w < minEdge {
				minEdge = w
			}
			if w > maxEdge {
				maxEdge = w
			}
		}
	}
	n.rowStart[total] = e
	n.minEdge = minEdge
	b := int(maxEdge/minEdge) + 2
	if b > maxDialBuckets {
		b = 0 // heap fallback
	}
	n.buckets = b
}

func (n *Network) addEdge(e int32, u, v int, step, cu float64) int32 {
	f := cu
	if cv := n.congestion[v]; cv > f {
		f = cv
	}
	n.adjNode[e] = int32(v)
	n.adjTime[e] = step * f / n.speed
	return e + 1
}

// reshape rebuilds the adjacency and recomputes the pinned tables against
// the new congestion field.
func (n *Network) reshape() {
	n.rebuild()
	for i, src := range n.pinnedSrcs {
		n.pinnedDist[i] = n.fullTable(src)
	}
}

// SetCongestion sets the slowdown factor (≥ 1) of the node nearest to p;
// edges touching the node take factor× longer. Setting congestion rebuilds
// the adjacency and recomputes the pinned tables.
func (n *Network) SetCongestion(p geo.Point, factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.congestion[n.nearestNode(p)] = factor
	n.reshape()
}

// SetCongestionDisk applies the factor to every node within radius of p.
func (n *Network) SetCongestionDisk(p geo.Point, radius, factor float64) {
	if factor < 1 {
		factor = 1
	}
	for id := 0; id < n.Nodes(); id++ {
		if n.NodeLoc(id).Dist(p) <= radius {
			n.congestion[id] = factor
		}
	}
	n.reshape()
}

// SetTrace attaches a tracer: every full shortest-path search records a
// "dijkstra" span parented to parent (normally the pipeline's run span —
// core.Run wires this automatically when the instance metric is a Network).
// A nil tracer detaches. Safe concurrently with queries; spans started
// before a detach still complete.
func (n *Network) SetTrace(tr *obs.Tracer, parent obs.SpanID) {
	if tr == nil {
		n.trace.Store(nil)
		return
	}
	n.trace.Store(&traceHook{tr: tr, parent: parent})
}

// PrecomputeSources computes and pins the full distance tables of the nodes
// nearest to the given points. Pinned tables are read without locks and win
// the which-endpoint-serves tie against unpinned nodes, so every query
// touching a hot source (a center location, typically) is one table read
// instead of a search. Idempotent; not safe concurrently with queries. Pins
// survive SetCongestion (tables are recomputed).
func (n *Network) PrecomputeSources(pts []geo.Point) {
	for _, p := range pts {
		src := int32(n.nearestNode(p))
		if n.pinnedIdx[src] >= 0 {
			continue
		}
		n.pinnedIdx[src] = int32(len(n.pinnedDist))
		n.pinnedDist = append(n.pinnedDist, n.fullTable(src))
		n.pinnedSrcs = append(n.pinnedSrcs, src)
	}
	mPinnedSources.Set(float64(len(n.pinnedSrcs)))
}

func (n *Network) nearestNode(p geo.Point) int {
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

// SnapNode implements model.NodeMetric: the nearest lattice node to p and
// the straight-line snap distance from p to it.
func (n *Network) SnapNode(p geo.Point) (int32, float64) {
	id := n.nearestNode(p)
	return int32(id), p.Dist(n.NodeLoc(id))
}

// TravelTime implements model.TravelMetric: snap both points to the grid,
// take the shortest road path between the nodes, and add the snap legs at
// base speed.
func (n *Network) TravelTime(a, b geo.Point) float64 {
	sa, la := n.SnapNode(a)
	sb, lb := n.SnapNode(b)
	return n.TravelTimeNodes(sa, la, sb, lb)
}

// TravelTimeNodes implements model.NodeMetric: the travel time between two
// pre-snapped points, each given as (node, snap-leg distance). This is the
// hot-loop entry: one table read when an endpoint is pinned, else one point
// search, and never an allocation.
//
// The source is picked by a pure function of the node pair and the pinned
// set — pinned endpoint first, then the smaller id — so the answer never
// depends on scratch state and stays bit-identical across parallelism levels
// (DESIGN.md §10). Symmetry of the metric makes either endpoint correct;
// picking one canonically means a query and its reverse read the same
// labels.
func (n *Network) TravelTimeNodes(aNode int32, aLeg float64, bNode int32, bLeg float64) float64 {
	snap := (aLeg + bLeg) * n.invSpeed
	if aNode == bNode {
		return snap
	}
	src, dst := n.orient(aNode, bNode)
	if pi := n.pinnedIdx[src]; pi >= 0 {
		mCacheHits.Inc()
		return snap + n.pinnedDist[pi][dst]
	}
	return snap + n.pointSearch(src, dst)
}

// orient is the canonical source-selection rule of TravelTimeNodes.
func (n *Network) orient(a, b int32) (src, dst int32) {
	pa, pb := n.pinnedIdx[a] >= 0, n.pinnedIdx[b] >= 0
	if pa != pb {
		if pa {
			return a, b
		}
		return b, a
	}
	if a < b {
		return a, b
	}
	return b, a
}

// Stats is a point-in-time snapshot of one network's oracle counters.
type Stats struct {
	// DijkstraRuns counts every search executed: full tables (pinned
	// sources and their recomputation) plus point searches.
	DijkstraRuns int64
	// PointSearches counts the early-exit searches of unpinned pairs.
	PointSearches int64
	// Settled counts the nodes those point searches settled.
	Settled int64
	// UniqueSources counts distinct source nodes ever searched.
	UniqueSources int64
	// Pinned is the number of pinned distance tables.
	Pinned int
	// Evictions is always 0: the oracle keeps no tables it could evict.
	Evictions int64
}

// Stats returns this network's oracle counters.
func (n *Network) Stats() Stats {
	points := n.pointSearches.Load()
	return Stats{
		DijkstraRuns:  n.fullSearches.Load() + points,
		PointSearches: points,
		Settled:       n.settledNodes.Load(),
		UniqueSources: n.uniqueSources.Load(),
		Pinned:        len(n.pinnedSrcs),
	}
}
