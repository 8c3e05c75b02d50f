package collab

import (
	"sort"

	"imtao/internal/assign"
	"imtao/internal/model"
)

// workerPool is the available worker set C.W_left with the bookkeeping the
// optimized game loop needs each iteration without rebuilding anything:
// an incrementally maintained ID-sorted view (the legacy loop re-sorted a
// map every iteration) and the home center of each member.
//
// Membership lives in a dense home array indexed by worker ID instead of a
// map, and the candidate lists are carved from a reusable scratch buffer, so
// the steady-state game iteration touches the pool without allocating
// (DESIGN.md §13). The scratch returned by candidates/admissible is valid
// until the next candidates/admissible call.
type workerPool struct {
	in *model.Instance
	// home[w] is w's home center while w is in the pool, -1 otherwise.
	home   []int32
	sorted []model.WorkerID // members in ascending ID order
	cands  []model.WorkerID // recycled candidate-list scratch
}

func newWorkerPool(in *model.Instance) *workerPool {
	p := &workerPool{
		in:     in,
		home:   make([]int32, len(in.Workers)),
		sorted: make([]model.WorkerID, 0, len(in.Workers)),
	}
	for i := range p.home {
		p.home[i] = -1
	}
	return p
}

func (p *workerPool) len() int { return len(p.sorted) }

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
	i := sort.Search(len(p.sorted), func(j int) bool { return p.sorted[j] >= w })
	p.sorted = append(p.sorted, 0)
	copy(p.sorted[i+1:], p.sorted[i:])
	p.sorted[i] = w
}

// remove deletes w from the pool; absent members are a no-op.
func (p *workerPool) remove(w model.WorkerID) {
	if p.home[w] < 0 {
		return
	}
	p.home[w] = -1
	i := sort.Search(len(p.sorted), func(j int) bool { return p.sorted[j] >= w })
	copy(p.sorted[i:], p.sorted[i+1:])
	p.sorted = p.sorted[:len(p.sorted)-1]
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
// pruned: every candidate gets the exact travel-time check. When onPruned is
// non-nil it observes every pruned candidate (test hook). The returned slice
// is pool scratch, valid until the next candidates/admissible call.
func (p *workerPool) admissible(c *model.Center, ci model.CenterID, slack float64,
	onPruned func(model.WorkerID)) ([]model.WorkerID, int) {

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
