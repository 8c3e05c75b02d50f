package provenance

import (
	"fmt"

	"imtao/internal/model"
)

// StepRef points at one iteration of one log, in replay order.
type StepRef struct {
	Log  *GameLog
	Iter *IterRec
}

// ReplayResult is a deterministic reconstruction of the recorded run: the
// final solution rebuilt from the ledger alone, plus the serialized step
// order the engines executed — the substrate of every explain query.
type ReplayResult struct {
	Solution *model.Solution
	Steps    []StepRef
}

// Replay reconstructs the run's exact final solution from the ledger — no
// instance, no assigner, no game. Phase-1 routes seed the state; the game
// logs then apply in ledger order: the unsharded engine's single game log,
// or the sharded engine's phase-A shard logs in shard order followed by its
// exchange log. That is the order the live engine builds its transfer log
// in, and each center's steps run in log order, so the final routes match.
//
// The returned solution fingerprints identically to the live Report's
// (SolutionFingerprint) — the property the ledger's completeness is pinned
// against.
func Replay(l *Ledger) (*ReplayResult, error) {
	if l.Phase1 == nil {
		return nil, fmt.Errorf("provenance: ledger has no phase-1 section — cannot replay")
	}
	r := &replayer{
		sol: &model.Solution{PerCenter: make([]model.Assignment, l.Meta.Centers)},
	}
	for ci := range r.sol.PerCenter {
		r.sol.PerCenter[ci].Center = model.CenterID(ci)
	}
	for i := range l.Phase1 {
		p := &l.Phase1[i]
		if p.Center < 0 || int(p.Center) >= len(r.sol.PerCenter) {
			return nil, fmt.Errorf("provenance: phase-1 center %d out of range (%d centers)", p.Center, l.Meta.Centers)
		}
		routes := make([]model.Route, len(p.Routes))
		for j, rt := range p.Routes {
			routes[j] = model.Route{Worker: rt.Worker, Center: p.Center,
				Tasks: append([]model.TaskID(nil), rt.Tasks...)}
		}
		r.sol.PerCenter[p.Center].Routes = routes
	}

	for _, g := range l.Logs {
		if g.Stage != StageGame && g.Stage != StageExchange {
			return nil, fmt.Errorf("provenance: unknown log stage %q", g.Stage)
		}
		for i := range g.Iters {
			if err := r.apply(g, &g.Iters[i]); err != nil {
				return nil, err
			}
		}
	}
	if r.sol.AssignedCount() == 0 && l.Final != nil && l.Final.Assigned != 0 {
		return nil, fmt.Errorf("provenance: replay assigned 0 tasks, final section records %d", l.Final.Assigned)
	}
	return &ReplayResult{Solution: r.sol, Steps: r.steps}, nil
}

type replayer struct {
	sol   *model.Solution
	steps []StepRef
}

// apply executes one step against the replay state: accepted steps extend
// the transfer log and install the recipient's recorded route delta.
func (r *replayer) apply(g *GameLog, it *IterRec) error {
	if it.Recipient < 0 || int(it.Recipient) >= len(r.sol.PerCenter) {
		return fmt.Errorf("provenance: %s log iteration %d: recipient %d out of range (%d centers)",
			g.Stage, it.Iter, it.Recipient, len(r.sol.PerCenter))
	}
	r.steps = append(r.steps, StepRef{Log: g, Iter: it})
	if !it.Accepted {
		return nil
	}
	r.sol.Transfers = append(r.sol.Transfers,
		model.Transfer{Src: it.Source, Dst: it.Recipient, Worker: it.Worker})
	delta := g.RouteDelta(it)
	pc := &r.sol.PerCenter[it.Recipient]
	if it.Replace {
		pc.Routes = pc.Routes[:0]
	}
	for _, rt := range delta {
		pc.Routes = append(pc.Routes, model.Route{Worker: rt.Worker,
			Center: it.Recipient, Tasks: append([]model.TaskID(nil), rt.Tasks...)})
	}
	return nil
}
