package provenance

import (
	"fmt"

	"imtao/internal/model"
)

// Explain queries: ledger → attribution. Each query replays the ledger once
// and walks the serialized step stream, so answers reflect the exact order
// the engines executed (or its proven-equivalent merge).

// TaskEvent is one phase-2 custody change of a task: an accepted step whose
// route delta picked the task up or dropped it.
type TaskEvent struct {
	StepIndex int // position in the serialized step stream
	Stage     string
	Shard     int
	Iter      int
	Worker    model.WorkerID // the worker gaining or losing the task
	Gained    bool           // false: the reassignment dropped it
}

// TaskFinal is the task's final placement with its cost context.
type TaskFinal struct {
	Worker model.WorkerID
	Center model.CenterID
	Pos    int     // 0-based position on the route
	Arrive float64 // arrival time, hours from dispatch
	Expiry float64
}

// TaskStory is the full recorded lifecycle of one task.
type TaskStory struct {
	Task   model.TaskID
	Center model.CenterID // owning center; -1 when the task is not in the ledger
	// Phase 1: the greedy pass's verdict.
	Phase1Worker model.WorkerID // -1: left unassigned by phase 1
	Phase1Pos    int
	Rejections   []ScanEvent // deadline scans that passed over this task
	// Phase 2: custody changes in serialized step order.
	Events []TaskEvent
	Final  *TaskFinal // nil: unassigned at the end of the run
}

// WhyTask reconstructs one task's lifecycle: who owned it after the
// partition, what phase 1 did with it, every phase-2 reassignment that
// changed its custody, and where (whether) it ended up.
func WhyTask(l *Ledger, task model.TaskID) (*TaskStory, error) {
	st := &TaskStory{Task: task, Center: -1, Phase1Worker: -1}
	for i := range l.Phase1 {
		p := &l.Phase1[i]
		for _, rt := range p.Routes {
			for pos, t := range rt.Tasks {
				if t == task {
					st.Center, st.Phase1Worker, st.Phase1Pos = p.Center, rt.Worker, pos
				}
			}
		}
		if st.Center < 0 {
			for _, t := range p.LeftTasks {
				if t == task {
					st.Center = p.Center
				}
			}
		}
		if st.Center >= 0 {
			break
		}
	}
	if st.Center < 0 {
		return nil, fmt.Errorf("provenance: task %d not recorded in any center's phase-1 section", task)
	}
	for _, e := range l.Scans[st.Center] {
		if e.Task == task {
			st.Rejections = append(st.Rejections, e)
		}
	}

	rr, err := Replay(l)
	if err != nil {
		return nil, err
	}
	// Tasks never change centers — only steps reassigning the owning center
	// can move this task between workers.
	cur := st.Phase1Worker
	for si, s := range rr.Steps {
		it := s.Iter
		if !it.Accepted || it.Recipient != st.Center {
			continue
		}
		var after model.WorkerID = -1
		inDelta := false
		for _, rt := range s.Log.RouteDelta(it) {
			for _, t := range rt.Tasks {
				if t == task {
					after, inDelta = rt.Worker, true
				}
			}
		}
		if !it.Replace && !inDelta {
			continue // append-only delta without the task: custody unchanged
		}
		if after == cur {
			continue
		}
		if cur >= 0 && after < 0 {
			st.Events = append(st.Events, TaskEvent{StepIndex: si, Stage: s.Log.Stage,
				Shard: s.Log.Shard, Iter: it.Iter, Worker: cur, Gained: false})
		} else if after >= 0 {
			st.Events = append(st.Events, TaskEvent{StepIndex: si, Stage: s.Log.Stage,
				Shard: s.Log.Shard, Iter: it.Iter, Worker: after, Gained: true})
		}
		cur = after
	}

	if l.Final != nil {
		for i := range l.Final.Routes {
			rt := &l.Final.Routes[i]
			for pos, t := range rt.Tasks {
				if t == task {
					st.Final = &TaskFinal{Worker: rt.Worker, Center: rt.Center,
						Pos: pos, Arrive: rt.Arrive[pos], Expiry: rt.Expiry[pos]}
				}
			}
		}
	}
	return st, nil
}

// WorkerTrial is one step at which a worker was evaluated as a transfer
// candidate.
type WorkerTrial struct {
	StepIndex int
	Stage     string
	Shard     int
	Iter      int
	Recipient model.CenterID
	Assigned  int32 // tasks the trial would serve; at most this when bounded
	Mode      uint8 // TrialFull / TrialResumed / TrialBounded
	Chosen    bool  // this step accepted this worker
}

// PruneEvent is one step at which a pool worker was cut by the admission
// radius without a trial.
type PruneEvent struct {
	StepIndex int
	Stage     string
	Shard     int
	Iter      int
	Recipient model.CenterID
	Slack     float64
}

// WorkerStory is the full recorded lifecycle of one worker.
type WorkerStory struct {
	Worker model.WorkerID
	Home   model.CenterID // -1 when the worker is not in the ledger
	// Phase 1.
	Phase1Tasks []model.TaskID // nil: leftover (entered the phase-2 pool)
	Pool        bool
	// Phase 2.
	Trials       []WorkerTrial
	Pruned       []PruneEvent
	Transfer     *model.Transfer // the accepted dispatch, if any
	TransferStep int             // step index of the dispatch; -1 otherwise
	// Final.
	FinalCenter model.CenterID // -1: unused at the end
	FinalTasks  []model.TaskID
}

// WhyNotWorker reconstructs one worker's lifecycle — in particular why an
// idle worker was never dispatched: it served its home center in phase 1 (and
// so never entered the pool), or it was admission-pruned at distance, or its
// trials never improved any recipient enough.
func WhyNotWorker(l *Ledger, worker model.WorkerID) (*WorkerStory, error) {
	st := &WorkerStory{Worker: worker, Home: -1, TransferStep: -1, FinalCenter: -1}
	for i := range l.Phase1 {
		p := &l.Phase1[i]
		for _, rt := range p.Routes {
			if rt.Worker == worker {
				st.Home = p.Center
				st.Phase1Tasks = rt.Tasks
			}
		}
		for _, w := range p.LeftWorkers {
			if w == worker {
				st.Home = p.Center
				st.Pool = true
			}
		}
	}
	if st.Home < 0 {
		return nil, fmt.Errorf("provenance: worker %d not recorded in any center's phase-1 section", worker)
	}

	rr, err := Replay(l)
	if err != nil {
		return nil, err
	}
	inPool := st.Pool
	for si, s := range rr.Steps {
		it := s.Iter
		tried := false
		for _, tr := range s.Log.Trials(it) {
			if tr.Worker == worker {
				tried = true
				st.Trials = append(st.Trials, WorkerTrial{StepIndex: si,
					Stage: s.Log.Stage, Shard: s.Log.Shard, Iter: it.Iter,
					Recipient: it.Recipient, Assigned: tr.Assigned, Mode: tr.Mode,
					Chosen: it.Accepted && it.Worker == worker})
			}
		}
		// A pool worker absent from a step's trials while the admission
		// radius cut candidates was (with overwhelming likelihood) one of the
		// cuts — the ledger records the count and slack, not the identities.
		if inPool && !tried && it.Pruned > 0 && it.Slack >= 0 {
			st.Pruned = append(st.Pruned, PruneEvent{StepIndex: si,
				Stage: s.Log.Stage, Shard: s.Log.Shard, Iter: it.Iter,
				Recipient: it.Recipient, Slack: it.Slack})
		}
		if it.Accepted && it.Worker == worker {
			st.Transfer = &model.Transfer{Src: it.Source, Dst: it.Recipient, Worker: worker}
			st.TransferStep = si
			inPool = false
		}
	}

	if l.Final != nil {
		for i := range l.Final.Routes {
			rt := &l.Final.Routes[i]
			if rt.Worker == worker {
				st.FinalCenter = rt.Center
				st.FinalTasks = rt.Tasks
			}
		}
	}
	return st, nil
}

// ChainStep is one phase-2 step touching a center — an incoming dispatch
// offer (accepted or rejected) or an outgoing loss of a pool worker.
type ChainStep struct {
	StepIndex  int
	Stage      string
	Shard      int
	Iter       int
	Accepted   bool
	Worker     model.WorkerID
	Source     model.CenterID
	Recipient  model.CenterID
	RhoBefore  float64
	RhoAfter   float64
	Phi        float64
	Candidates int // trials evaluated at this step
	PrunedN    int
}

// CenterChain is one center's phase-2 history with its start and end state.
type CenterChain struct {
	Center        model.CenterID
	Phase1        *CenterPhase1 // nil if the ledger lacks the section
	Steps         []ChainStep   // steps with this center as recipient or source
	Witness       *Witness      // this center's certificate witness, if any
	FinalAssigned int
	FinalRho      float64
}

// TransferChain reconstructs one center's phase-2 history: every step that
// offered it a worker (with the Δρ/ΔΦ evidence) and every accepted dispatch
// that pulled a worker from its pool, in serialized order.
func TransferChain(l *Ledger, center model.CenterID) (*CenterChain, error) {
	if int(center) < 0 || int(center) >= l.Meta.Centers {
		return nil, fmt.Errorf("provenance: center %d out of range (%d centers)", center, l.Meta.Centers)
	}
	ch := &CenterChain{Center: center}
	for i := range l.Phase1 {
		if l.Phase1[i].Center == center {
			ch.Phase1 = &l.Phase1[i]
		}
	}
	rr, err := Replay(l)
	if err != nil {
		return nil, err
	}
	for si, s := range rr.Steps {
		it := s.Iter
		if it.Recipient != center && !(it.Accepted && it.Source == center) {
			continue
		}
		ch.Steps = append(ch.Steps, ChainStep{StepIndex: si, Stage: s.Log.Stage,
			Shard: s.Log.Shard, Iter: it.Iter, Accepted: it.Accepted,
			Worker: it.Worker, Source: it.Source, Recipient: it.Recipient,
			RhoBefore: it.RhoBefore, RhoAfter: it.RhoAfter, Phi: it.Phi,
			Candidates: it.TrialN, PrunedN: it.Pruned})
	}
	if l.Cert != nil {
		for i := range l.Cert.Centers {
			if l.Cert.Centers[i].Center == center {
				ch.Witness = &l.Cert.Centers[i]
			}
		}
	}
	for i := range rr.Solution.PerCenter[center].Routes {
		ch.FinalAssigned += len(rr.Solution.PerCenter[center].Routes[i].Tasks)
	}
	if ch.Phase1 != nil && ch.Phase1.Tasks > 0 {
		ch.FinalRho = float64(ch.FinalAssigned) / float64(ch.Phase1.Tasks)
		if ch.FinalRho > 1 {
			ch.FinalRho = 1
		}
	}
	return ch, nil
}

// TaskMove is one task whose final worker differs between two ledgers.
type TaskMove struct {
	Task             model.TaskID
	WorkerA, WorkerB model.WorkerID // -1: unassigned in that ledger
}

// LedgerDiff is the comparison of two runs' ledgers.
type LedgerDiff struct {
	MetaDiffs []string // human-readable "field: a vs b" lines
	// Step-stream comparison (serialized order).
	StepsA, StepsB     int
	FirstDivergence    int    // index of the first differing step; -1: streams agree
	DivergeA, DivergeB string // the differing steps, rendered; "" at equal length
	// Final-state comparison.
	FingerprintEqual bool
	OnlyA, OnlyB     []model.TaskID // tasks assigned in exactly one run
	Moved            []TaskMove     // assigned in both, to different workers
}

// DiffLedgers compares two ledgers: run metadata, the serialized step streams
// (finding the first step where the runs diverged), and the final
// assignments (tasks gained, lost or moved between the runs).
func DiffLedgers(a, b *Ledger) (*LedgerDiff, error) {
	d := &LedgerDiff{FirstDivergence: -1}
	diffMeta := func(field, va, vb string) {
		if va != vb {
			d.MetaDiffs = append(d.MetaDiffs, fmt.Sprintf("%s: %s vs %s", field, va, vb))
		}
	}
	diffMeta("method", a.Meta.Method, b.Meta.Method)
	diffMeta("engine", a.Meta.Engine, b.Meta.Engine)
	diffMeta("scope", a.Meta.Scope, b.Meta.Scope)
	diffMeta("centers", fmt.Sprint(a.Meta.Centers), fmt.Sprint(b.Meta.Centers))
	diffMeta("workers", fmt.Sprint(a.Meta.Workers), fmt.Sprint(b.Meta.Workers))
	diffMeta("tasks", fmt.Sprint(a.Meta.Tasks), fmt.Sprint(b.Meta.Tasks))
	diffMeta("seed", fmt.Sprint(a.Meta.Seed), fmt.Sprint(b.Meta.Seed))

	ra, err := Replay(a)
	if err != nil {
		return nil, fmt.Errorf("ledger A: %w", err)
	}
	rb, err := Replay(b)
	if err != nil {
		return nil, fmt.Errorf("ledger B: %w", err)
	}
	d.StepsA, d.StepsB = len(ra.Steps), len(rb.Steps)
	renderStep := func(s StepRef) string {
		it := s.Iter
		verdict := "reject"
		if it.Accepted {
			verdict = fmt.Sprintf("accept w%d %d→%d", it.Worker, it.Source, it.Recipient)
		}
		return fmt.Sprintf("%s[%d] iter %d: center %d ρ=%.4f %s",
			s.Log.Stage, s.Log.Shard, it.Iter, it.Recipient, it.RhoBefore, verdict)
	}
	n := d.StepsA
	if d.StepsB < n {
		n = d.StepsB
	}
	for i := 0; i < n; i++ {
		ia, ib := ra.Steps[i].Iter, rb.Steps[i].Iter
		if ia.Recipient != ib.Recipient || ia.Accepted != ib.Accepted ||
			ia.Worker != ib.Worker || ia.Source != ib.Source ||
			ia.RhoBefore != ib.RhoBefore {
			d.FirstDivergence = i
			d.DivergeA, d.DivergeB = renderStep(ra.Steps[i]), renderStep(rb.Steps[i])
			break
		}
	}
	if d.FirstDivergence < 0 && d.StepsA != d.StepsB {
		d.FirstDivergence = n
		if d.StepsA > n {
			d.DivergeA = renderStep(ra.Steps[n])
		}
		if d.StepsB > n {
			d.DivergeB = renderStep(rb.Steps[n])
		}
	}

	d.FingerprintEqual = SolutionFingerprint(ra.Solution) == SolutionFingerprint(rb.Solution)
	workerOf := func(sol *model.Solution) map[model.TaskID]model.WorkerID {
		m := make(map[model.TaskID]model.WorkerID)
		for ci := range sol.PerCenter {
			for _, rt := range sol.PerCenter[ci].Routes {
				for _, t := range rt.Tasks {
					m[t] = rt.Worker
				}
			}
		}
		return m
	}
	wa, wb := workerOf(ra.Solution), workerOf(rb.Solution)
	maxT := a.Meta.Tasks
	if b.Meta.Tasks > maxT {
		maxT = b.Meta.Tasks
	}
	for t := 0; t < maxT; t++ {
		tid := model.TaskID(t)
		va, oka := wa[tid]
		vb, okb := wb[tid]
		switch {
		case oka && !okb:
			d.OnlyA = append(d.OnlyA, tid)
		case okb && !oka:
			d.OnlyB = append(d.OnlyB, tid)
		case oka && okb && va != vb:
			d.Moved = append(d.Moved, TaskMove{Task: tid, WorkerA: va, WorkerB: vb})
		}
	}
	return d, nil
}
