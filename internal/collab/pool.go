package collab

import (
	"slices"
	"sort"

	"imtao/internal/assign"
	"imtao/internal/index"
	"imtao/internal/model"
)

// workerPool is the available worker set C.W_left with the bookkeeping the
// optimized game loop needs each iteration without rebuilding anything:
// an incrementally maintained ID-sorted view (the legacy loop re-sorted a
// map every iteration), the home center of each member, a per-center member
// count (to price pruning without scans), and an optional spatial index over
// member locations for the admissibility prefilter.
//
// Membership lives in a dense home array indexed by worker ID instead of a
// map, and the candidate lists are carved from reusable scratch buffers, so
// the steady-state game iteration touches the pool without allocating
// (DESIGN.md §13). The scratch returned by candidates/admissible is valid
// until the next candidates/admissible call.
type workerPool struct {
	in *model.Instance
	// home[w] is w's home center while w is in the pool, -1 otherwise.
	home   []int32
	size   int
	sorted []model.WorkerID // members in ascending ID order
	counts []int            // members homed at each center
	// grid indexes member locations when the travel metric declares a speed
	// bound (model.SpeedBounded or the instance's uniform Speed); vmax is
	// that bound. A nil grid means admissibility falls back to an exact
	// linear travel-time scan.
	grid *index.Grid
	vmax float64
	// items/cands are the recycled range-query and candidate-list scratch.
	items []index.Item
	cands []model.WorkerID
}

// poolSpeedBound resolves the instance's admission-prefilter speed bound:
// the uniform Speed for straight-line instances, MaxSpeed for SpeedBounded
// metrics, and 0 (no bound — exact scans only) otherwise.
func poolSpeedBound(in *model.Instance) float64 {
	if in.Metric == nil {
		return in.Speed
	}
	if sb, ok := in.Metric.(model.SpeedBounded); ok {
		return sb.MaxSpeed()
	}
	return 0
}

func newWorkerPool(in *model.Instance, spatial bool) *workerPool {
	p := &workerPool{
		in:     in,
		home:   make([]int32, len(in.Workers)),
		sorted: make([]model.WorkerID, 0, len(in.Workers)),
		counts: make([]int, len(in.Centers)),
	}
	for i := range p.home {
		p.home[i] = -1
	}
	if spatial {
		if v := poolSpeedBound(in); v > 0 {
			p.vmax = v
			p.grid = index.NewGrid(in.Bounds, max(len(in.Workers)/4, 1), 4)
		}
	}
	return p
}

func (p *workerPool) len() int { return p.size }

func (p *workerPool) homeOf(w model.WorkerID) model.CenterID {
	return model.CenterID(p.home[w])
}

// add inserts w (homed at home) into the pool; present members are left
// untouched.
func (p *workerPool) add(w model.WorkerID, home model.CenterID) {
	if p.home[w] >= 0 {
		return
	}
	p.home[w] = int32(home)
	p.size++
	i := sort.Search(len(p.sorted), func(j int) bool { return p.sorted[j] >= w })
	p.sorted = append(p.sorted, 0)
	copy(p.sorted[i+1:], p.sorted[i:])
	p.sorted[i] = w
	p.counts[home]++
	if p.grid != nil {
		p.grid.Insert(index.Item{ID: int(w), Point: p.in.Worker(w).Loc})
	}
}

// remove deletes w from the pool; absent members are a no-op.
func (p *workerPool) remove(w model.WorkerID) {
	home := p.home[w]
	if home < 0 {
		return
	}
	p.home[w] = -1
	p.size--
	i := sort.Search(len(p.sorted), func(j int) bool { return p.sorted[j] >= w })
	copy(p.sorted[i:], p.sorted[i+1:])
	p.sorted = p.sorted[:len(p.sorted)-1]
	p.counts[home]--
	if p.grid != nil {
		p.grid.Remove(int(w))
	}
}

// candidates returns the members not homed at ci, in ascending ID order —
// the legacy candidate list, served from the maintained sorted view. The
// returned slice is pool scratch, valid until the next candidates/admissible
// call.
func (p *workerPool) candidates(ci model.CenterID) []model.WorkerID {
	out := p.cands[:0]
	for _, w := range p.sorted {
		if model.CenterID(p.home[w]) != ci {
			out = append(out, w)
		}
	}
	p.cands = out
	return out
}

// admissible returns the candidates (members not homed at ci) that pass the
// admission-slack check for center c, in ascending ID order, plus the count
// pruned. With a spatial bound the scan is a grid range query of radius
// (slack+pad)·vmax — conservatively inflated so floating point can only
// over-admit — with an exact travel-time re-check per hit; otherwise every
// candidate gets the exact check. When onPruned is non-nil the exact linear
// path is forced and the hook observes every pruned candidate (test hook).
// The returned slice is pool scratch, valid until the next
// candidates/admissible call.
func (p *workerPool) admissible(c *model.Center, ci model.CenterID, slack float64,
	onPruned func(model.WorkerID)) ([]model.WorkerID, int) {

	nonOwn := len(p.sorted) - p.counts[ci]
	if p.grid != nil && onPruned == nil {
		r := (slack + assign.PrunePad) * p.vmax
		if r > 0 {
			r += r*1e-9 + 1e-12
		}
		p.items = p.grid.InRangeAppend(p.items[:0], c.Loc, r)
		cands := p.cands[:0]
		for _, it := range p.items {
			w := model.WorkerID(it.ID)
			if model.CenterID(p.home[w]) == ci {
				continue
			}
			if assign.WorkerAdmissible(p.in, c, w, slack) {
				cands = append(cands, w)
			}
		}
		slices.Sort(cands)
		p.cands = cands
		return cands, nonOwn - len(cands)
	}

	cands := p.cands[:0]
	pruned := 0
	for _, w := range p.sorted {
		if model.CenterID(p.home[w]) == ci {
			continue
		}
		if assign.WorkerAdmissible(p.in, c, w, slack) {
			cands = append(cands, w)
		} else {
			pruned++
			if onPruned != nil {
				onPruned(w)
			}
		}
	}
	p.cands = cands
	return cands, pruned
}
