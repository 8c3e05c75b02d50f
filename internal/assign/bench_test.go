package assign

import (
	"math/rand"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// benchScene builds an instance with n tasks scattered uniformly over the
// bounds, matching the geometry the grid index sees in a real run.
func benchScene(n int) (*model.Instance, []model.TaskID, []geo.Point) {
	rng := rand.New(rand.NewSource(7))
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	in := centerScene(nil, locs, 1e9, n)
	in.EnsureHot() // the pools read task locations from the hot slab
	_, ts := allIDs(in)
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	return in, ts, queries
}

// noRef is the snap of a point without a node metric.
var noRef = model.NodeRef{Node: -1}

func BenchmarkGridPoolNearest(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newGridPool(in, ts)
	defer p.release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.nearest(queries[i%len(queries)], noRef, -1)
	}
}

// BenchmarkGridPoolNearestRemove measures the phase-1 inner loop shape: a
// nearest query followed by removing the returned task, draining and
// rebuilding the pool as it empties.
func BenchmarkGridPoolNearestRemove(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newGridPool(in, ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, ok := p.nearest(queries[i%len(queries)], noRef, -1)
		if !ok {
			b.StopTimer()
			p.release()
			p = newGridPool(in, ts)
			b.StartTimer()
			continue
		}
		p.remove(id)
	}
	b.StopTimer()
	p.release()
}

func BenchmarkLinearPoolNearest(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newLinearPool(in, ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.nearest(queries[i%len(queries)], noRef, -1)
	}
}

// BenchmarkLinearPoolRemove exercises the O(1) swap-delete against a drained
// and rebuilt pool.
func BenchmarkLinearPoolRemove(b *testing.B) {
	in, ts, _ := benchScene(4096)
	p := newLinearPool(in, ts)
	order := rand.New(rand.NewSource(11)).Perm(len(ts))
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(order) {
			b.StopTimer()
			p = newLinearPool(in, ts)
			j = 0
			b.StartTimer()
		}
		p.remove(ts[order[j]])
		j++
	}
}

// BenchmarkTaskOrdersBuild measures one center's order-table build over
// 4096 tasks: the center order, the neighbour lists and the memo slots.
func BenchmarkTaskOrdersBuild(b *testing.B) {
	in, _, _ := benchScene(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTaskOrders(in).center(0)
	}
}
