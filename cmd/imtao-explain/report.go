package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/workload"

	"imtao"
)

// stageLabel renders a step's origin: the global game, one shard's game, or
// the exchange game.
func stageLabel(stage string, shard int) string {
	switch {
	case stage == provenance.StageGame && shard < 0:
		return "game"
	case stage == provenance.StageGame:
		return fmt.Sprintf("shard %d game", shard)
	default:
		return "exchange game"
	}
}

func modeLabel(m uint8) string {
	switch m {
	case provenance.TrialResumed:
		return "prefix-resumed"
	case provenance.TrialBounded:
		return "bounded"
	}
	return "full trial"
}

func summary(w io.Writer, l *provenance.Ledger) error {
	m := l.Meta
	fmt.Fprintf(w, "run: %s (%s engine, %s scope) — %d centers, %d workers, %d tasks, seed %d\n",
		m.Method, m.Engine, m.Scope, m.Centers, m.Workers, m.Tasks, m.Seed)
	p1 := 0
	scans := 0
	for i := range l.Phase1 {
		p1 += l.Phase1[i].Assigned
	}
	for _, evs := range l.Scans {
		scans += len(evs)
	}
	fmt.Fprintf(w, "phase 1: %d/%d tasks assigned, %d deadline rejections recorded\n",
		p1, m.Tasks, scans)
	for _, g := range l.Logs {
		acc := 0
		for i := range g.Iters {
			if g.Iters[i].Accepted {
				acc++
			}
		}
		fmt.Fprintf(w, "phase 2 %s: %d iterations, %d dispatches accepted\n",
			stageLabel(g.Stage, g.Shard), len(g.Iters), acc)
	}
	if s := l.Shard; s != nil {
		fmt.Fprintf(w, "sharding: %d shards, %d exchange iterations, %d exchange transfers\n",
			s.Shards, s.ExchangeIters, s.ExchangeTransfers)
	}
	if f := l.Final; f != nil {
		fmt.Fprintf(w, "final: %d/%d tasks assigned, %d transfers, unfairness %.4f, fingerprint %016x\n",
			f.Assigned, m.Tasks, len(f.Transfers), f.Unfairness, f.Fingerprint)
	}
	if c := l.Cert; c != nil {
		fmt.Fprintf(w, "certificate: %d witnesses, Φ=%.4f, equilibrium=%v (verify offline with `imtao-explain verify -scene <instance>`)\n",
			len(c.Centers), c.Phi, c.Equilibrium)
	} else {
		fmt.Fprintln(w, "certificate: none recorded")
	}
	rr, err := provenance.Replay(l)
	if err != nil {
		return fmt.Errorf("ledger does not replay: %w", err)
	}
	if f := l.Final; f != nil {
		if got := provenance.SolutionFingerprint(rr.Solution); got != f.Fingerprint {
			return fmt.Errorf("replay fingerprint %016x does not match recorded %016x — ledger incomplete", got, f.Fingerprint)
		}
		fmt.Fprintf(w, "replay: %d serialized steps reproduce the recorded fingerprint ✓\n", len(rr.Steps))
	}
	return nil
}

func whyTask(w io.Writer, l *provenance.Ledger, id model.TaskID) error {
	st, err := provenance.WhyTask(l, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "task %d — owned by center %d after the Voronoi partition\n", st.Task, st.Center)
	if st.Phase1Worker >= 0 {
		fmt.Fprintf(w, "phase 1: assigned to worker %d (stop %d on its route)\n",
			st.Phase1Worker, st.Phase1Pos+1)
	} else {
		fmt.Fprintf(w, "phase 1: left unassigned — center %d's workers were exhausted or arrived too late\n", st.Center)
	}
	for _, e := range st.Rejections {
		fmt.Fprintf(w, "  scan: worker %d would arrive at %.3fh, after the %.3fh expiry — rejected\n",
			e.Worker, e.Arrive, e.Expiry)
	}
	if len(st.Events) == 0 {
		fmt.Fprintln(w, "phase 2: no reassignment changed this task's custody")
	}
	for _, e := range st.Events {
		verb := "picked up by"
		if !e.Gained {
			verb = "dropped by"
		}
		fmt.Fprintf(w, "phase 2 [%s iter %d, step %d]: %s worker %d\n",
			stageLabel(e.Stage, e.Shard), e.Iter, e.StepIndex, verb, e.Worker)
	}
	if st.Final != nil {
		slack := st.Final.Expiry - st.Final.Arrive
		fmt.Fprintf(w, "final: served by worker %d at center %d, stop %d — arrival %.3fh vs expiry %.3fh (%.3fh to spare)\n",
			st.Final.Worker, st.Final.Center, st.Final.Pos+1,
			st.Final.Arrive, st.Final.Expiry, slack)
	} else {
		fmt.Fprintf(w, "final: UNASSIGNED — center %d never gained enough capacity to reach it in time\n", st.Center)
	}
	return nil
}

func whyNot(w io.Writer, l *provenance.Ledger, id model.WorkerID) error {
	st, err := provenance.WhyNotWorker(l, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "worker %d — home center %d\n", st.Worker, st.Home)
	switch {
	case st.Phase1Tasks != nil:
		fmt.Fprintf(w, "phase 1: served %d task(s) at home %v — busy workers never enter the transfer pool\n",
			len(st.Phase1Tasks), st.Phase1Tasks)
	case st.Pool:
		fmt.Fprintln(w, "phase 1: idle — entered the phase-2 transfer pool")
	}
	if len(st.Trials) > 0 {
		fmt.Fprintf(w, "phase 2: evaluated as a candidate %d time(s):\n", len(st.Trials))
		for _, tr := range st.Trials {
			verdict := "not chosen"
			if tr.Chosen {
				verdict = "CHOSEN"
			}
			atMost := ""
			if tr.Mode == provenance.TrialBounded {
				atMost = "at most "
			}
			fmt.Fprintf(w, "  [%s iter %d, step %d] center %d trial: would serve %s%d task(s) (%s) — %s\n",
				stageLabel(tr.Stage, tr.Shard), tr.Iter, tr.StepIndex,
				tr.Recipient, atMost, tr.Assigned, modeLabel(tr.Mode), verdict)
		}
	} else if st.Pool {
		fmt.Fprintln(w, "phase 2: never evaluated as a candidate")
	}
	if len(st.Pruned) > 0 {
		fmt.Fprintf(w, "phase 2: skipped by admissibility pruning at %d step(s), e.g. [%s iter %d] center %d (admission slack %.3fh) — too far to reach any task in time\n",
			len(st.Pruned), stageLabel(st.Pruned[0].Stage, st.Pruned[0].Shard),
			st.Pruned[0].Iter, st.Pruned[0].Recipient, st.Pruned[0].Slack)
	}
	if st.Transfer != nil {
		fmt.Fprintf(w, "dispatched: center %d → center %d (step %d)\n",
			st.Transfer.Src, st.Transfer.Dst, st.TransferStep)
	}
	if st.FinalCenter >= 0 {
		fmt.Fprintf(w, "final: serving %d task(s) at center %d\n", len(st.FinalTasks), st.FinalCenter)
	} else {
		fmt.Fprintln(w, "final: idle — no deviation that used this worker improved any center's ratio")
	}
	return nil
}

func transfers(w io.Writer, l *provenance.Ledger, id model.CenterID) error {
	ch, err := provenance.TransferChain(l, id)
	if err != nil {
		return err
	}
	if p := ch.Phase1; p != nil {
		fmt.Fprintf(w, "center %d — phase 1: %d/%d tasks assigned (ρ=%.4f), %d idle workers, %d leftover tasks\n",
			ch.Center, p.Assigned, p.Tasks, p.Rho, len(p.LeftWorkers), len(p.LeftTasks))
	}
	if len(ch.Steps) == 0 {
		fmt.Fprintln(w, "phase 2: no step offered this center a worker or took one from it")
	}
	for _, s := range ch.Steps {
		loc := fmt.Sprintf("[%s iter %d, step %d]", stageLabel(s.Stage, s.Shard), s.Iter, s.StepIndex)
		switch {
		case s.Accepted && s.Recipient == ch.Center:
			fmt.Fprintf(w, "%s IN: worker %d from center %d — ρ %.4f→%.4f, Φ=%.4f (%d trials, %d pruned)\n",
				loc, s.Worker, s.Source, s.RhoBefore, s.RhoAfter, s.Phi, s.Candidates, s.PrunedN)
		case s.Accepted:
			fmt.Fprintf(w, "%s OUT: worker %d dispatched to center %d (its ρ %.4f→%.4f)\n",
				loc, s.Worker, s.Recipient, s.RhoBefore, s.RhoAfter)
		default:
			fmt.Fprintf(w, "%s offer rejected: no candidate improved ρ=%.4f (%d trials, %d pruned)\n",
				loc, s.RhoBefore, s.Candidates, s.PrunedN)
		}
	}
	fmt.Fprintf(w, "final: %d task(s) assigned, ρ=%.4f\n", ch.FinalAssigned, ch.FinalRho)
	if wit := ch.Witness; wit != nil {
		fmt.Fprintf(w, "witness: %d candidates swept (%d pruned), best deviation ρ=%.4f — %s\n",
			wit.Candidates, wit.Pruned, wit.BestRho, witnessVerdict(wit))
	}
	return nil
}

func witnessVerdict(wit *provenance.Witness) string {
	if wit.BestWorker < 0 {
		return "no improving deviation exists"
	}
	return fmt.Sprintf("worker %d could still improve it (non-equilibrium evidence)", wit.BestWorker)
}

func tasksCmd(args []string) error {
	fs := flag.NewFlagSet("tasks", flag.ContinueOnError)
	status := fs.String("status", "", "filter: assigned or unassigned")
	n := fs.Int("n", 20, "maximum tasks listed (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("tasks: expected a ledger file")
	}
	if *status != "" && *status != "assigned" && *status != "unassigned" {
		return fmt.Errorf("tasks: -status must be assigned or unassigned")
	}
	l, err := readLedger(fs.Arg(0))
	if err != nil {
		return err
	}
	if l.Final == nil {
		return fmt.Errorf("ledger has no final section")
	}
	worker := make(map[model.TaskID]model.WorkerID)
	for i := range l.Final.Routes {
		rt := &l.Final.Routes[i]
		for _, t := range rt.Tasks {
			worker[t] = rt.Worker
		}
	}
	listed := 0
	for t := 0; t < l.Meta.Tasks; t++ {
		tid := model.TaskID(t)
		wid, ok := worker[tid]
		if (*status == "assigned" && !ok) || (*status == "unassigned" && ok) {
			continue
		}
		if *n > 0 && listed >= *n {
			fmt.Println("  ...")
			break
		}
		if ok {
			fmt.Printf("task %d: assigned to worker %d\n", tid, wid)
		} else {
			fmt.Printf("task %d: unassigned\n", tid)
		}
		listed++
	}
	return nil
}

func verifyCmd(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	scene := fs.String("scene", "", "instance JSON (imtao-datagen output) the run was recorded on")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *scene == "" {
		return fmt.Errorf("verify: expected -scene <instance.json> and a ledger file")
	}
	l, err := readLedger(fs.Arg(0))
	if err != nil {
		return err
	}
	if l.Cert == nil {
		return fmt.Errorf("ledger carries no certificate (Opt assigner and w/o-C runs record none)")
	}
	f, err := os.Open(*scene)
	if err != nil {
		return err
	}
	raw, err := workload.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	in, err := imtao.Partition(raw)
	if err != nil {
		return err
	}
	rr, err := provenance.Replay(l)
	if err != nil {
		return fmt.Errorf("ledger does not replay: %w", err)
	}
	if l.Final != nil {
		if got := provenance.SolutionFingerprint(rr.Solution); got != l.Final.Fingerprint {
			return fmt.Errorf("replay fingerprint %016x does not match recorded %016x", got, l.Final.Fingerprint)
		}
	}
	if err := rr.Solution.CheckConsistency(in); err != nil {
		return fmt.Errorf("ledger does not fit the scene: %w", err)
	}
	if err := l.Cert.Verify(in, rr.Solution); err != nil {
		return fmt.Errorf("certificate INVALID: %w", err)
	}
	fmt.Printf("certificate VALID: %d witnesses reproduced, equilibrium=%v, Φ=%.4f, bound to solution %016x\n",
		len(l.Cert.Centers), l.Cert.Equilibrium, l.Cert.Phi, l.Cert.SolutionFP)
	return nil
}

func diffCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff: expected two ledger files")
	}
	a, err := readLedger(args[0])
	if err != nil {
		return err
	}
	b, err := readLedger(args[1])
	if err != nil {
		return err
	}
	d, err := provenance.DiffLedgers(a, b)
	if err != nil {
		return err
	}
	for _, line := range d.MetaDiffs {
		fmt.Println("meta:", line)
	}
	if len(d.MetaDiffs) == 0 {
		fmt.Println("meta: identical")
	}
	fmt.Printf("steps: %d vs %d\n", d.StepsA, d.StepsB)
	if d.FirstDivergence < 0 {
		fmt.Println("step streams: identical")
	} else {
		fmt.Printf("first divergence at step %d:\n  A: %s\n  B: %s\n",
			d.FirstDivergence, orNone(d.DivergeA), orNone(d.DivergeB))
	}
	if d.FingerprintEqual {
		fmt.Println("final solutions: identical (fingerprints match)")
		return nil
	}
	fmt.Printf("final solutions differ: %d task(s) only in A, %d only in B, %d moved between workers\n",
		len(d.OnlyA), len(d.OnlyB), len(d.Moved))
	printSome := func(label string, ids []model.TaskID) {
		if len(ids) == 0 {
			return
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		max := len(ids)
		suffix := ""
		if max > 10 {
			max, suffix = 10, ", ..."
		}
		fmt.Printf("  %s: %v%s\n", label, ids[:max], suffix)
	}
	printSome("only A", d.OnlyA)
	printSome("only B", d.OnlyB)
	for i, mv := range d.Moved {
		if i >= 10 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  task %d: worker %d (A) vs worker %d (B)\n", mv.Task, mv.WorkerA, mv.WorkerB)
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(stream ended)"
	}
	return s
}
