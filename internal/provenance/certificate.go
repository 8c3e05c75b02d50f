package provenance

import (
	"fmt"
	"hash/fnv"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
)

// rhoEps mirrors collab's strict-improvement epsilon: a deviation counts as
// improving only when it raises ρ by more than this.
const rhoEps = 1e-12

// Witness is one center's best-response evidence: the candidate sweep the
// equilibrium claim rests on, compressed to counters, the best deviation
// found, and a hash of every (candidate, trial outcome) pair so a checker
// can confirm it reproduced the exact same sweep.
type Witness struct {
	Center     model.CenterID `json:"center"`
	TaskCount  int            `json:"task_count"`
	Assigned   int            `json:"assigned"`
	Rho        float64        `json:"rho"`
	Slack      float64        `json:"slack"`      // admission slack used to prune the pool
	Candidates int            `json:"candidates"` // pool candidates examined (pruned included)
	Pruned     int            `json:"pruned"`     // cut by the admission radius without a trial
	BestRho    float64        `json:"best_rho"`   // best deviation ratio over evaluated candidates
	BestWorker model.WorkerID `json:"best_worker"`
	Hash       uint64         `json:"hash"` // FNV-1a over the sweep, see witnessHash
}

// Certificate is a machine-checkable equilibrium certificate: per-center
// best-response witnesses over the final solution, the solution fingerprint
// they are bound to, and the resulting verdict. Built by the run (from
// VerifyEquilibrium's sweep semantics) for the Sequential assigner;
// Certificate.Verify re-validates it offline from (instance, solution)
// without re-running the phase-2 game.
//
// Fully-loaded centers (ρ ≥ 1) carry no witness: no deviation can improve
// them, exactly as VerifyEquilibrium skips them.
type Certificate struct {
	Scope       string    `json:"scope"` // the run's phase-2 scope (Meta.Scope)
	SolutionFP  uint64    `json:"fingerprint"`
	Phi         float64   `json:"phi"`         // potential Σρ over all centers
	Eps         float64   `json:"eps"`         // the strict-improvement epsilon (rhoEps)
	Equilibrium bool      `json:"equilibrium"` // no witness found an improving deviation
	Centers     []Witness `json:"-"`           // one prov_witness line each
}

// BuildCertificate computes the certificate of a solution under the
// Sequential assigner — the same sweep VerifyEquilibrium performs, with the
// same exact accelerations (admission-slack pruning, prefix-resume trials),
// recorded as witnesses instead of just a verdict. It never fails: a
// non-equilibrium solution (e.g. the w/o-C start state of a game that makes
// a transfer) yields a valid certificate with Equilibrium=false and the
// improving witness in evidence.
//
// scope selects the deviation class probed: ScopeFull re-assigns a center's
// full task set per candidate (the BDC/RBDC game's move), ScopeLeftover
// hands the candidate only the center's unassigned tasks (DC's move — prior
// routes stay frozen, exactly as in the game).
func BuildCertificate(in *model.Instance, sol *model.Solution, scope string) *Certificate {
	in.PrepareMetric()
	cert := &Certificate{
		Scope:       scope,
		SolutionFP:  SolutionFingerprint(sol),
		Eps:         rhoEps,
		Equilibrium: true,
	}

	pool, workers := WorkerSets(in, sol)
	// One nearest-task table serves every center's trial base.
	orders := assign.NewTaskOrders(in)

	for ci := range in.Centers {
		center := in.Center(model.CenterID(ci))
		assigned := sol.PerCenter[ci].AssignedCount()
		rho := metrics.Ratio(assigned, len(center.Tasks))
		cert.Phi += rho
		if rho >= 1 {
			continue
		}

		var leftTasks []model.TaskID
		if scope == ScopeLeftover {
			served := make(map[model.TaskID]bool, assigned)
			for _, r := range sol.PerCenter[ci].Routes {
				for _, t := range r.Tasks {
					served[t] = true
				}
			}
			for _, t := range center.Tasks {
				if !served[t] {
					leftTasks = append(leftTasks, t)
				}
			}
		}

		wit := sweepCenter(in, orders, center, workers[ci], pool, leftTasks, assigned, rho)
		if wit.BestRho > rho+rhoEps {
			cert.Equilibrium = false
		}
		cert.Centers = append(cert.Centers, wit)
	}
	return cert
}

// WorkerSets reconstructs from a solution what every center's deviation
// sweep runs against: the available pool (the workers on no route and in
// no transfer, in ID order) and each center's current worker set (its own
// workers not lent out, then the workers it borrowed, in transfer order).
// Every worker moves at most once, from its home center.
func WorkerSets(in *model.Instance, sol *model.Solution) (pool []model.WorkerID, workers [][]model.WorkerID) {
	moved := make([]bool, len(in.Workers))
	for _, tr := range sol.Transfers {
		moved[tr.Worker] = true
	}
	used := make([]bool, len(in.Workers))
	for ci := range sol.PerCenter {
		for _, r := range sol.PerCenter[ci].Routes {
			used[r.Worker] = true
		}
	}
	for _, w := range in.Workers {
		if !used[w.ID] && !moved[w.ID] {
			pool = append(pool, w.ID)
		}
	}
	workers = make([][]model.WorkerID, len(in.Centers))
	for ci := range in.Centers {
		for _, w := range in.Centers[ci].Workers {
			if !moved[w] {
				workers[ci] = append(workers[ci], w)
			}
		}
	}
	for _, tr := range sol.Transfers {
		workers[tr.Dst] = append(workers[tr.Dst], tr.Worker)
	}
	return pool, workers
}

// sweepCenter runs one center's best-response candidate sweep and condenses
// it into a witness. workers is the center's current worker set (own minus
// lent, plus borrowed); pool is the globally available candidates. A
// non-nil leftTasks switches to the DC deviation class: the candidate alone
// serves the leftover tasks, prior routes frozen. orders is the table the
// prefix-resume trials query.
func sweepCenter(in *model.Instance, orders *assign.TaskOrders, center *model.Center, workers, pool []model.WorkerID,
	leftTasks []model.TaskID, assigned int, rho float64) Witness {

	wit := Witness{
		Center: center.ID, TaskCount: len(center.Tasks), Assigned: assigned,
		Rho: rho, BestRho: rho, BestWorker: model.WorkerID(-1),
	}
	leftover := leftTasks != nil
	if leftover {
		wit.Slack = assign.AdmissionSlack(in, center, leftTasks)
	} else {
		wit.Slack = assign.AdmissionSlack(in, center, center.Tasks)
	}

	h := fnv.New64a()
	var b [8]byte
	word := func(vs ...int64) {
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}

	var runner *assign.TrialRunner
	for _, cand := range pool {
		if in.Worker(cand).Home == center.ID {
			continue
		}
		wit.Candidates++
		if !assign.WorkerAdmissible(in, center, cand, wit.Slack) {
			wit.Pruned++
			word(int64(cand), -1)
			continue
		}
		var n int
		if leftover {
			trial := assign.Sequential(in, center, []model.WorkerID{cand}, leftTasks)
			n = assigned + trial.AssignedCount()
		} else {
			var trial assign.Result
			if runner == nil {
				baseline := assign.Sequential(in, center, workers, center.Tasks)
				if base, ok := assign.NewTrialBase(orders, center, workers, baseline.Routes, baseline.LeftTasks); ok {
					runner = base.NewRunner()
				}
			}
			if runner != nil {
				trial = runner.Trial(cand)
			} else {
				trial = assign.Sequential(in, center,
					append(append([]model.WorkerID(nil), workers...), cand), center.Tasks)
			}
			n = trial.AssignedCount()
		}
		word(int64(cand), int64(n))
		if newRho := metrics.Ratio(n, len(center.Tasks)); newRho > wit.BestRho+rhoEps {
			wit.BestRho = newRho
			wit.BestWorker = cand
		}
	}
	wit.Hash = h.Sum64()
	return wit
}

// Verify re-validates a certificate offline against the instance and
// solution it claims to certify: the fingerprint must bind, every witness
// sweep must reproduce byte-for-byte (same candidates, same prune cuts,
// same trial outcomes — compared by hash), and the equilibrium verdict must
// follow from the witnesses. It re-runs only per-center candidate trials —
// never the phase-2 game itself. A nil error means the certificate is
// sound.
func (c *Certificate) Verify(in *model.Instance, sol *model.Solution) error {
	if fp := SolutionFingerprint(sol); fp != c.SolutionFP {
		return fmt.Errorf("provenance: certificate binds solution %016x, got %016x", c.SolutionFP, fp)
	}
	fresh := BuildCertificate(in, sol, c.Scope)
	if len(fresh.Centers) != len(c.Centers) {
		return fmt.Errorf("provenance: certificate lists %d witnesses, recomputation yields %d",
			len(c.Centers), len(fresh.Centers))
	}
	for i := range fresh.Centers {
		got, want := &fresh.Centers[i], &c.Centers[i]
		if got.Center != want.Center {
			return fmt.Errorf("provenance: witness %d is for center %d, recomputation visits center %d",
				i, want.Center, got.Center)
		}
		if got.Hash != want.Hash {
			return fmt.Errorf("provenance: center %d witness hash %016x, recomputation %016x — sweep diverged",
				want.Center, want.Hash, got.Hash)
		}
		if got.Candidates != want.Candidates || got.Pruned != want.Pruned {
			return fmt.Errorf("provenance: center %d sweep shape (%d cands, %d pruned) vs recomputed (%d, %d)",
				want.Center, want.Candidates, want.Pruned, got.Candidates, got.Pruned)
		}
		if got.BestRho != want.BestRho || got.BestWorker != want.BestWorker {
			return fmt.Errorf("provenance: center %d best deviation (ρ=%v via worker %d) vs recomputed (ρ=%v via %d)",
				want.Center, want.BestRho, want.BestWorker, got.BestRho, got.BestWorker)
		}
	}
	if fresh.Equilibrium != c.Equilibrium {
		return fmt.Errorf("provenance: certificate claims equilibrium=%v, witnesses say %v",
			c.Equilibrium, fresh.Equilibrium)
	}
	return nil
}
