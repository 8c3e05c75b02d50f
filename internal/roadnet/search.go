package roadnet

import (
	"math"
	"time"

	"imtao/internal/obs"
)

// searchScratch is the reusable working set of one search: the Dial bucket
// ring, the typed heap of the fallback, and one epoch-stamped state per
// node. A node's label and settled mark count only while their stamps equal
// the current epoch, so starting a search costs one increment — no table
// allocation and no +Inf fill. The Network keeps a sync.Pool of scratches so
// concurrent searches never contend on scratch.
type searchScratch struct {
	ring  [][]int32
	heap  []heapItem
	node  []nodeState
	epoch int32
}

// nodeState is one node's part in the current search.
type nodeState struct {
	dist    float64 // tentative label, valid when labeled == epoch
	labeled int32
	settled int32 // == epoch ⇒ dist is final
}

// search runs Dijkstra from src until dst is settled — or, with dst < 0,
// until every reachable node is — and returns dst's label and the number of
// nodes settled. Every search is fully deterministic: fixed neighbour order,
// a monotone bucket queue (or a typed heap ordered by (distance, id)), and
// settled nodes are never relaxed again. The last point makes early exit
// exact: a point search is a prefix of the full search from the same
// source, and the label it returns is the one the full search keeps, bit for
// bit.
func (n *Network) search(src, dst int32, s *searchScratch) (float64, int) {
	if len(s.node) < n.Nodes() {
		s.node = make([]nodeState, n.Nodes())
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == math.MaxInt32 { // epoch wrap: reset stamps once per 2^31 searches
		clear(s.node)
		s.epoch = 1
	}
	s.node[src] = nodeState{dist: 0, labeled: s.epoch}
	if n.buckets > 0 {
		return n.dial(src, dst, s)
	}
	return n.heapSearch(src, dst, s)
}

// relax offers label nd to st. It reports whether the label improved,
// which is exactly when a search writing into a fresh +Inf table would have
// written it: a node first seen in this search compares against +Inf.
func relax(st *nodeState, epoch int32, nd float64) bool {
	if st.labeled != epoch {
		st.dist, st.labeled = math.Inf(1), epoch
	}
	if nd < st.dist {
		st.dist = nd
		return true
	}
	return false
}

// fullTable computes the exact shortest-path distance table of src: pinned
// sources and their recomputation on congestion reshapes. The table is
// freshly allocated (it outlives the call); the working memory comes from
// the scratch pool.
func (n *Network) fullTable(src int32) []float64 {
	// A full search is the oracle's expensive path, so a span per search —
	// and a quantile sample — is cheap relative to the work it times.
	t0 := time.Now()
	defer func() { mDijkstraSeconds.ObserveDuration(time.Since(t0)) }()
	if h := n.trace.Load(); h != nil {
		ts := h.tr.Start(h.parent, "dijkstra", obs.F("src", int(src)))
		defer func() {
			ts.End(obs.F("pinned", n.pinnedIdx[src] >= 0))
		}()
	}
	s := n.scratch.Get().(*searchScratch)
	n.search(src, -1, s)
	dist := make([]float64, n.Nodes())
	for v := range dist {
		if st := &s.node[v]; st.settled == s.epoch {
			dist[v] = st.dist
		} else {
			dist[v] = math.Inf(1)
		}
	}
	n.scratch.Put(s)
	n.fullSearches.Add(1)
	mDijkstraRuns.Inc()
	n.markSource(src)
	return dist
}

// pointSearch answers one unpinned node pair: the search from src stops the
// moment dst settles. It allocates nothing and records no clock read and no
// span — the game runs hundreds of thousands of these per solve.
func (n *Network) pointSearch(src, dst int32) float64 {
	s := n.scratch.Get().(*searchScratch)
	d, settled := n.search(src, dst, s)
	n.pointSearches.Add(1)
	n.settledNodes.Add(int64(settled))
	mPointSearches.Inc()
	mSettledNodes.Add(int64(settled))
	n.scratch.Put(s)
	n.markSource(src)
	return d
}

// markSource records src in the distinct-source count.
func (n *Network) markSource(src int32) {
	if !n.searched[src].Load() && !n.searched[src].Swap(true) {
		n.uniqueSources.Add(1)
	}
}

// dial is Dijkstra with a monotone bucket queue (Dial's algorithm). The
// bucket width is the minimum edge time, which makes every label in the
// active bucket final: two labels in one bucket differ by less than one
// edge, so neither can improve the other. The ring has maxEdge/minEdge + 2
// slots — enough that a tentative label (≤ active + maxEdge) never collides
// with the active bucket from behind. No heap, no interface boxing, and
// relaxation is one compare + append.
func (n *Network) dial(src, dst int32, s *searchScratch) (float64, int) {
	ringSize := n.buckets
	if cap(s.ring) < ringSize {
		s.ring = make([][]int32, ringSize)
	}
	ring := s.ring[:ringSize]
	node, epoch, delta := s.node, s.epoch, n.minEdge

	ring[0] = append(ring[0][:0], src)
	pending, settled, top := 1, 0, 0 // top: highest bucket used
	for abs, slot := 0, 0; pending > 0; abs, slot = abs+1, slot+1 {
		if slot == ringSize {
			slot = 0 // slot == abs % ringSize, without a division
		}
		// Index loop: relaxations may append to the active bucket (labels
		// that round down onto it), so len is re-read every iteration.
		for i := 0; i < len(ring[slot]); i++ {
			u := ring[slot][i]
			pending--
			if node[u].settled == epoch {
				continue // stale entry: settled from an earlier bucket
			}
			node[u].settled = epoch
			settled++
			du := node[u].dist
			if u == dst {
				// Leave the ring empty for the next search.
				for b, j := abs, slot; b <= max(top, abs); b, j = b+1, j+1 {
					if j == ringSize {
						j = 0
					}
					ring[j] = ring[j][:0]
				}
				return du, settled
			}
			for e := n.rowStart[u]; e < n.rowStart[u+1]; e++ {
				v := n.adjNode[e]
				if node[v].settled == epoch {
					continue
				}
				nd := du + n.adjTime[e]
				if relax(&node[v], epoch, nd) {
					b := int(nd / delta)
					// Float-rounding guards: a label belongs to
					// [abs, abs+ringSize-1] by construction; clamp the
					// pathological half-ulp cases back into the window.
					if b < abs {
						b = abs
					} else if b > abs+ringSize-1 {
						b = abs + ringSize - 1
					}
					top = max(top, b)
					// b%ringSize without a division: b-abs < ringSize.
					j := slot + b - abs
					if j >= ringSize {
						j -= ringSize
					}
					ring[j] = append(ring[j], v)
					pending++
				}
			}
		}
		ring[slot] = ring[slot][:0]
	}
	return math.Inf(1), settled
}

// heapItem is one typed binary-heap element — no interface{} boxing, no
// per-push allocation (the backing array lives in the scratch).
type heapItem struct {
	d  float64
	id int32
}

// heapSearch is the Dijkstra fallback for pathological congestion ratios
// where the Dial ring would be enormous. Ordering is (distance, id) so the
// settle order — and with it the result — is deterministic.
func (n *Network) heapSearch(src, dst int32, s *searchScratch) (float64, int) {
	node, epoch := s.node, s.epoch
	h := append(s.heap[:0], heapItem{0, src})
	settled := 0
	for len(h) > 0 {
		var it heapItem
		it, h = heapPop(h)
		u := it.id
		if node[u].settled == epoch {
			continue
		}
		node[u].settled = epoch
		settled++
		du := node[u].dist
		if u == dst {
			s.heap = h[:0]
			return du, settled
		}
		for e := n.rowStart[u]; e < n.rowStart[u+1]; e++ {
			v := n.adjNode[e]
			if node[v].settled == epoch {
				continue
			}
			nd := du + n.adjTime[e]
			if relax(&node[v], epoch, nd) {
				h = heapPush(h, heapItem{nd, v})
			}
		}
	}
	s.heap = h
	return math.Inf(1), settled
}

func heapLess(a, b heapItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.id < b.id
}

func heapPush(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && heapLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && heapLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}
