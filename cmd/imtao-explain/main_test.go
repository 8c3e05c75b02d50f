package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/workload"

	"imtao"
)

// run10k executes one method on the 10k preset with a ledger attached and
// writes the ledger to a file, returning report, ledger and path.
func run10k(t *testing.T, m imtao.Method, opts ...imtao.RunOption) (*imtao.Report, *imtao.Ledger, string) {
	t.Helper()
	p := workload.ScaleParams(workload.SYN, 10000)
	raw, err := imtao.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := imtao.Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	led := imtao.NewLedger()
	opts = append(opts, imtao.WithProvenance(led), imtao.WithSeed(1))
	rep, err := imtao.Run(in, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.prov.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := led.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, led, path
}

// taskStatus splits the task space by final assignment, returning one
// assigned task (with its final worker) and one unassigned task.
func taskStatus(rep *imtao.Report) (assigned model.TaskID, worker model.WorkerID, unassigned model.TaskID) {
	assignedTo := make(map[model.TaskID]model.WorkerID)
	for ci := range rep.Solution.PerCenter {
		for _, rt := range rep.Solution.PerCenter[ci].Routes {
			for _, tid := range rt.Tasks {
				assignedTo[tid] = rt.Worker
			}
		}
	}
	assigned, unassigned = -1, -1
	for t := 0; t < 10000; t++ {
		tid := model.TaskID(t)
		if w, ok := assignedTo[tid]; ok && assigned < 0 {
			assigned, worker = tid, w
		} else if !ok && unassigned < 0 {
			unassigned = tid
		}
		if assigned >= 0 && unassigned >= 0 {
			break
		}
	}
	return
}

// TestExplain10kAllEngines pins the why-task / why-not / transfers / summary
// answers against the live Report on the 10k preset, across the unsharded
// game, the sharded engine, DC's leftover-scope game and w/o-C.
func TestExplain10kAllEngines(t *testing.T) {
	cases := []struct {
		name string
		m    imtao.Method
		opts []imtao.RunOption
	}{
		{"Seq-BDC", imtao.SeqBDC, nil},
		{"Seq-BDC-sharded", imtao.SeqBDC, []imtao.RunOption{imtao.WithShards(4)}},
		{"Seq-DC", imtao.SeqDC, nil},
		{"Seq-w/o-C", imtao.SeqWoC, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, _, path := run10k(t, c.m, c.opts...)
			l, err := readLedger(path)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := summary(&buf, l); err != nil {
				t.Fatalf("summary: %v\n%s", err, buf.String())
			}
			wantFinal := fmt.Sprintf("final: %d/10000 tasks assigned, %d transfers",
				rep.Assigned, rep.Transfers)
			if !strings.Contains(buf.String(), wantFinal) {
				t.Errorf("summary lacks %q:\n%s", wantFinal, buf.String())
			}
			if rep.Transfers > 0 && !strings.Contains(buf.String(), "reproduce the recorded fingerprint") {
				t.Errorf("summary did not confirm replay:\n%s", buf.String())
			}

			aid, worker, uid := taskStatus(rep)
			buf.Reset()
			if err := whyTask(&buf, l, aid); err != nil {
				t.Fatalf("why-task %d: %v", aid, err)
			}
			wantServe := fmt.Sprintf("final: served by worker %d", worker)
			if !strings.Contains(buf.String(), wantServe) {
				t.Errorf("why-task %d lacks %q:\n%s", aid, wantServe, buf.String())
			}
			if uid >= 0 {
				buf.Reset()
				if err := whyTask(&buf, l, uid); err != nil {
					t.Fatalf("why-task %d: %v", uid, err)
				}
				if !strings.Contains(buf.String(), "final: UNASSIGNED") {
					t.Errorf("why-task %d not reported unassigned:\n%s", uid, buf.String())
				}
			}

			if len(rep.Solution.Transfers) > 0 {
				tr := rep.Solution.Transfers[0]
				buf.Reset()
				if err := whyNot(&buf, l, tr.Worker); err != nil {
					t.Fatalf("why-not %d: %v", tr.Worker, err)
				}
				wantDispatch := fmt.Sprintf("dispatched: center %d → center %d", tr.Src, tr.Dst)
				if !strings.Contains(buf.String(), wantDispatch) {
					t.Errorf("why-not %d lacks %q:\n%s", tr.Worker, wantDispatch, buf.String())
				}
				if !strings.Contains(buf.String(), "CHOSEN") {
					t.Errorf("why-not %d lacks a CHOSEN trial:\n%s", tr.Worker, buf.String())
				}

				buf.Reset()
				if err := transfers(&buf, l, tr.Dst); err != nil {
					t.Fatalf("transfers %d: %v", tr.Dst, err)
				}
				wantIn := fmt.Sprintf("IN: worker %d from center %d", tr.Worker, tr.Src)
				if !strings.Contains(buf.String(), wantIn) {
					t.Errorf("transfers %d lacks %q:\n%s", tr.Dst, wantIn, buf.String())
				}
			}
		})
	}
}

// TestExplainWhyNotBounded10k pins how why-not prints a trial the bounded
// sweep skipped: with its key's bound as "at most" a count, and the mode
// "bounded", never as an exact count.
func TestExplainWhyNotBounded10k(t *testing.T) {
	_, led, path := run10k(t, imtao.SeqBDC)
	l, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range led.Logs {
		for i := range g.Iters {
			for _, tr := range g.Trials(&g.Iters[i]) {
				if tr.Mode != provenance.TrialBounded {
					continue
				}
				var buf bytes.Buffer
				if err := whyNot(&buf, l, tr.Worker); err != nil {
					t.Fatalf("why-not %d: %v", tr.Worker, err)
				}
				want := fmt.Sprintf("center %d trial: would serve at most %d task(s) (bounded)",
					g.Iters[i].Recipient, tr.Assigned)
				if !strings.Contains(buf.String(), want) {
					t.Errorf("why-not %d lacks %q:\n%s", tr.Worker, want, buf.String())
				}
				return
			}
		}
	}
	t.Fatal("the 10k Seq-BDC ledger records no bounded trial")
}

// TestExplainDiff10k pins the diff verdicts: a ledger against itself is
// identical; RBDC runs under different seeds diverge with a located first
// divergent step and final deltas.
func TestExplainDiff10k(t *testing.T) {
	_, _, pathA := run10k(t, imtao.SeqBDC)
	a, err := readLedger(pathA)
	if err != nil {
		t.Fatal(err)
	}
	d, err := provenance.DiffLedgers(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d.FirstDivergence != -1 || !d.FingerprintEqual || len(d.MetaDiffs) != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}

	// Different RBDC seeds pick different recipients: the runs must diverge.
	p := workload.ScaleParams(workload.SYN, 10000)
	raw, err := imtao.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := imtao.Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *imtao.Ledger {
		led := imtao.NewLedger()
		if _, err := imtao.Run(in, imtao.SeqRBDC, imtao.WithSeed(seed), imtao.WithProvenance(led)); err != nil {
			t.Fatal(err)
		}
		return led
	}
	l1, l2 := mk(1), mk(2)
	d, err = provenance.DiffLedgers(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MetaDiffs) != 1 || !strings.Contains(d.MetaDiffs[0], "seed") {
		t.Errorf("seed diff not reported: %v", d.MetaDiffs)
	}
	if d.FirstDivergence < 0 {
		t.Fatal("different-seed RBDC runs reported as identical step streams")
	}
	if d.DivergeA == "" || d.DivergeB == "" || d.DivergeA == d.DivergeB {
		t.Errorf("divergent steps not rendered: %q vs %q", d.DivergeA, d.DivergeB)
	}
}
