package assign

import (
	"math/rand"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// benchScene builds one center's share of a map the way phase 1 sees it:
// centers sites and centers·perCenter tasks scattered uniformly over a
// 2000×2000 map, of which the center at the origin keeps the tasks in its
// Voronoi cell — a 1/centers patch of the map, not the whole map. Its
// workers stand in the same cell with room for every task, so a serve
// drains the pool.
func benchScene(centers, perCenter int) *model.Instance {
	rng := rand.New(rand.NewSource(7))
	sites := []geo.Point{geo.Pt(0, 0)}
	for len(sites) < centers {
		sites = append(sites, geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000))
	}
	mine := func(p geo.Point) bool {
		for _, s := range sites[1:] {
			if p.Dist2(s) < p.Norm2() {
				return false
			}
		}
		return true
	}
	var tl, wl []geo.Point
	for i := 0; i < centers*perCenter; i++ {
		if p := geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000); mine(p) {
			tl = append(tl, p)
		}
	}
	for len(wl) < max(len(tl)/4, 1) {
		if p := geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000); mine(p) {
			wl = append(wl, p)
		}
	}
	in := centerScene(wl, tl, 1e9, 8)
	in.EnsureHot()
	return in
}

// drain serves every task of a fresh pool in Algorithm 2's query shape —
// one query from the center, then one from each task just taken, eight per
// route — and returns the number of queries.
func drain(in *model.Instance, p taskPool) int {
	c := in.Center(0)
	th := in.HotTasks()
	n := 0
	for p.len() > 0 {
		q, from := c.Loc, model.TaskID(-1)
		for i := 0; i < 8 && p.len() > 0; i++ {
			sid, _, _ := p.nearest(q, noRef, from)
			p.take()
			q, from = th[sid].Loc, sid
			n++
		}
	}
	return n
}

// noRef is the snap of a point without a node metric.
var noRef = model.NodeRef{Node: -1}

// BenchmarkPoolServe times one center's whole phase-1 pool life — build,
// then a query and removal per task until it is empty — on a 1/|C| patch
// of 200 tasks, the per-center size of the SYN 10k and GM 250k workloads.
// The cell pool is the default, and its center order comes from the
// instance's task geometry, sorted in the first iteration only; the linear
// pool is the index-choice ablation's reference.
func BenchmarkPoolServe(b *testing.B) {
	in := benchScene(50, 200)
	ts := in.Centers[0].Tasks
	b.Run("cells", func(b *testing.B) {
		var p cellPool
		for i := 0; i < b.N; i++ {
			p.reset(in, in.Center(0), ts)
			drain(in, &p)
		}
		b.ReportMetric(float64(len(ts)), "tasks")
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drain(in, newLinearPool(in, ts))
		}
		b.ReportMetric(float64(len(ts)), "tasks")
	})
}

// BenchmarkSequential times one center's full Algorithm 2 run, serve order
// and leftover sets included, on the same patch.
func BenchmarkSequential(b *testing.B) {
	in := benchScene(50, 200)
	c := in.Center(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sequential(in, c, c.Workers, c.Tasks)
	}
}

// BenchmarkTaskOrdersBuild measures one center's cold order-table build on
// the same patch: the center order, the neighbour lists and the memo slots,
// on a fresh task geometry each time.
func BenchmarkTaskOrdersBuild(b *testing.B) {
	in := benchScene(50, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := NewTaskOrders(in)
		o.geom = newTaskGeometry(in)
		o.center(0)
	}
}
