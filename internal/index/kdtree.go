// Package index provides the spatial indexes used by the IMTAO pipeline:
// a dynamic uniform grid supporting removal, which answers the partition's
// nearest-center queries (paper Algorithm 1) and the game's range
// queries, and a static KD-tree for nearest-neighbour queries with
// predicate filtering, which the skill-constrained assigner queries.
//
// Both indexes answer queries over a set of identified points: callers
// register (id, point) pairs and queries return ids. Distances are Euclidean.
package index

import (
	"math"
	"sort"

	"imtao/internal/geo"
)

// Item is an identified point stored in an index.
type Item struct {
	ID    int
	Point geo.Point
}

// KDTree is a static 2-d tree over a fixed set of items. Items cannot be
// inserted or removed after construction; queries accept an acceptance
// predicate instead, which is how the assignment loop excludes
// already-assigned tasks without rebuilding.
type KDTree struct {
	nodes []kdNode
	root  int
}

type kdNode struct {
	item        Item
	left, right int // -1 when absent
	axis        uint8
	bounds      geo.Rect // bounding rect of the subtree, for pruning
}

// NewKDTree builds a balanced KD-tree over items in O(n log n).
// The input slice is not retained or modified.
func NewKDTree(items []Item) *KDTree {
	t := &KDTree{root: -1}
	if len(items) == 0 {
		return t
	}
	buf := make([]Item, len(items))
	copy(buf, items)
	t.nodes = make([]kdNode, 0, len(items))
	t.root = t.build(buf, 0)
	return t
}

// Len returns the number of items in the tree.
func (t *KDTree) Len() int { return len(t.nodes) }

func (t *KDTree) build(items []Item, axis uint8) int {
	if len(items) == 0 {
		return -1
	}
	mid := len(items) / 2
	if axis == 0 {
		sort.Slice(items, func(i, j int) bool {
			if items[i].Point.X != items[j].Point.X {
				return items[i].Point.X < items[j].Point.X
			}
			return items[i].ID < items[j].ID
		})
	} else {
		sort.Slice(items, func(i, j int) bool {
			if items[i].Point.Y != items[j].Point.Y {
				return items[i].Point.Y < items[j].Point.Y
			}
			return items[i].ID < items[j].ID
		})
	}
	idx := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{item: items[mid], axis: axis, left: -1, right: -1})
	next := 1 - axis
	left := t.build(items[:mid], next)
	right := t.build(items[mid+1:], next)
	n := &t.nodes[idx]
	n.left, n.right = left, right
	n.bounds = geo.Rect{Min: n.item.Point, Max: n.item.Point}
	if left >= 0 {
		n.bounds = n.bounds.Union(t.nodes[left].bounds)
	}
	if right >= 0 {
		n.bounds = n.bounds.Union(t.nodes[right].bounds)
	}
	return idx
}

// Nearest returns the item closest to q among those accepted by accept
// (accept == nil accepts everything). ok is false when no item is accepted.
// Ties in distance break toward the smaller ID so results are deterministic.
func (t *KDTree) Nearest(q geo.Point, accept func(Item) bool) (Item, bool) {
	best := Item{ID: -1}
	bestD := math.Inf(1)
	var rec func(int)
	rec = func(ni int) {
		if ni < 0 {
			return
		}
		n := &t.nodes[ni]
		if n.bounds.Dist2(q) > bestD {
			return
		}
		d := q.Dist2(n.item.Point)
		if (d < bestD || (d == bestD && n.item.ID < best.ID)) && (accept == nil || accept(n.item)) {
			best, bestD = n.item, d
		}
		var near, far int
		var delta float64
		if n.axis == 0 {
			delta = q.X - n.item.Point.X
		} else {
			delta = q.Y - n.item.Point.Y
		}
		if delta < 0 {
			near, far = n.left, n.right
		} else {
			near, far = n.right, n.left
		}
		rec(near)
		if delta*delta <= bestD {
			rec(far)
		}
	}
	rec(t.root)
	return best, best.ID >= 0
}

// KNearest returns up to k accepted items ordered by increasing distance to q.
func (t *KDTree) KNearest(q geo.Point, k int, accept func(Item) bool) []Item {
	if k <= 0 || t.root < 0 {
		return nil
	}
	h := &maxHeap{}
	var rec func(int)
	rec = func(ni int) {
		if ni < 0 {
			return
		}
		n := &t.nodes[ni]
		if h.Len() == k && n.bounds.Dist2(q) > h.top().d {
			return
		}
		if accept == nil || accept(n.item) {
			h.push(entry{d: q.Dist2(n.item.Point), it: n.item}, k)
		}
		var near, far int
		var delta float64
		if n.axis == 0 {
			delta = q.X - n.item.Point.X
		} else {
			delta = q.Y - n.item.Point.Y
		}
		if delta < 0 {
			near, far = n.left, n.right
		} else {
			near, far = n.right, n.left
		}
		rec(near)
		if h.Len() < k || delta*delta <= h.top().d {
			rec(far)
		}
	}
	rec(t.root)
	out := h.sorted()
	items := make([]Item, len(out))
	for i, e := range out {
		items[i] = e.it
	}
	return items
}

// InRange returns all accepted items within radius r of q, in no particular
// order.
func (t *KDTree) InRange(q geo.Point, r float64, accept func(Item) bool) []Item {
	if r < 0 || t.root < 0 {
		return nil
	}
	r2 := r * r
	var out []Item
	var rec func(int)
	rec = func(ni int) {
		if ni < 0 {
			return
		}
		n := &t.nodes[ni]
		if n.bounds.Dist2(q) > r2 {
			return
		}
		if q.Dist2(n.item.Point) <= r2 && (accept == nil || accept(n.item)) {
			out = append(out, n.item)
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
	return out
}

// entry pairs an item with its squared distance for heap ordering.
type entry struct {
	d  float64
	it Item
}

// maxHeap is a bounded max-heap on distance used by KNearest.
type maxHeap struct{ es []entry }

func (h *maxHeap) Len() int   { return len(h.es) }
func (h *maxHeap) top() entry { return h.es[0] }
func (h *maxHeap) less(i, j int) bool {
	if h.es[i].d != h.es[j].d {
		return h.es[i].d > h.es[j].d
	}
	return h.es[i].it.ID > h.es[j].it.ID // larger ID = "worse" on ties
}

func (h *maxHeap) push(e entry, k int) {
	if len(h.es) == k {
		// Replace the root if e is better (smaller distance / smaller ID).
		if e.d > h.es[0].d || (e.d == h.es[0].d && e.it.ID > h.es[0].it.ID) {
			return
		}
		h.es[0] = e
		h.siftDown(0)
		return
	}
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *maxHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

func (h *maxHeap) sorted() []entry {
	out := make([]entry, len(h.es))
	copy(out, h.es)
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].it.ID < out[j].it.ID
	})
	return out
}
