package core

import (
	"bytes"
	"testing"

	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/workload"
)

// provInstance generates a partitioned paper-default instance for the
// provenance property suite.
func provInstance(t *testing.T, mutate func(*workload.Params)) *model.Instance {
	t.Helper()
	p := workload.Defaults(workload.SYN)
	if mutate != nil {
		mutate(&p)
	}
	raw, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestProvenanceReplayReconstructsSolution is the ledger-completeness
// property: replaying a provenance ledger — with no instance, assigner or
// game — reconstructs the run's exact final assignment, fingerprint-equal
// to the live Report, across every collaboration method on the unsharded
// engine for both assigners.
func TestProvenanceReplayReconstructsSolution(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
		in   func(t *testing.T) *model.Instance
	}
	seqIn := func(t *testing.T) *model.Instance { return provInstance(t, nil) }
	// Opt's branch-and-bound only stays fast on a small instance; a zero
	// budget keeps it deterministic (budgeted Opt trials are wall-clock
	// dependent and not replay-stable).
	optIn := func(t *testing.T) *model.Instance {
		return provInstance(t, func(p *workload.Params) {
			p.NumTasks, p.NumWorkers, p.NumCenters, p.Seed = 60, 20, 4, 7
		})
	}
	var cases []tc
	for _, ck := range []CollabKind{BDC, RBDC, DC, WoC} {
		cases = append(cases, tc{
			name: Method{Seq, ck}.String(),
			cfg:  Config{Method: Method{Seq, ck}, Seed: 3},
			in:   seqIn,
		})
		cases = append(cases, tc{
			name: Method{Opt, ck}.String(),
			cfg:  Config{Method: Method{Opt, ck}, Seed: 3},
			in:   optIn,
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.in(t)
			cfg := c.cfg
			cfg.Prov = provenance.NewLedger()
			rep, err := Run(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertReplayMatches(t, rep)
		})
	}
}

// TestProvenanceReplaySharded extends the replay property to the sharded
// engine: empty and non-empty interference cuts, with the merge interleave
// re-derived from the recorded per-step ρ values.
func TestProvenanceReplaySharded(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, ck := range []CollabKind{BDC, DC} {
			m := Method{Seq, ck}
			t.Run(m.String()+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				in := provInstance(t, func(p *workload.Params) { p.Seed = int64(shards) })
				cfg := Config{Method: m, Seed: 5, Shards: shards,
					Prov: provenance.NewLedger()}
				rep, err := Run(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Shard == nil {
					t.Fatal("sharded run produced no shard report")
				}
				assertReplayMatches(t, rep)
				if rep.Provenance.Shard == nil {
					t.Error("ledger missing shard section")
				}
			})
		}
	}
}

func assertReplayMatches(t *testing.T, rep *Report) {
	t.Helper()
	l := rep.Provenance
	if l == nil {
		t.Fatal("Report.Provenance is nil with Config.Prov set")
	}
	if l.Final == nil {
		t.Fatal("ledger has no final section")
	}
	want := provenance.SolutionFingerprint(rep.Solution)
	if l.Final.Fingerprint != want {
		t.Fatalf("final fingerprint %016x, solution %016x", l.Final.Fingerprint, want)
	}
	rr, err := provenance.Replay(l)
	if err != nil {
		t.Fatal(err)
	}
	if got := provenance.SolutionFingerprint(rr.Solution); got != want {
		t.Fatalf("replay fingerprint %016x, live solution %016x", got, want)
	}
	if got, wantN := rr.Solution.AssignedCount(), rep.Assigned; got != wantN {
		t.Fatalf("replay assigned %d, report %d", got, wantN)
	}
	if got, wantN := len(rr.Solution.Transfers), rep.Transfers; got != wantN {
		t.Fatalf("replay transfers %d, report %d", got, wantN)
	}
}

// TestProvenanceCertificate checks the certificate round-trip: the run's
// certificate re-validates offline from (instance, solution) alone, and a
// tampered certificate is rejected.
func TestProvenanceCertificate(t *testing.T) {
	for _, ck := range []CollabKind{BDC, DC} {
		m := Method{Seq, ck}
		t.Run(m.String(), func(t *testing.T) {
			in := provInstance(t, nil)
			cfg := Config{Method: m, Prov: provenance.NewLedger()}
			rep, err := Run(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cert := rep.Provenance.Cert
			if cert == nil {
				t.Fatal("no certificate on a Seq collaboration run")
			}
			if !cert.Equilibrium {
				t.Fatal("the run's certificate does not claim equilibrium")
			}
			if err := cert.Verify(in, rep.Solution); err != nil {
				t.Fatalf("certificate failed offline re-validation: %v", err)
			}
			if len(cert.Centers) > 0 {
				bad := *cert
				bad.Centers = append([]provenance.Witness(nil), cert.Centers...)
				bad.Centers[0].Hash ^= 1
				if err := bad.Verify(in, rep.Solution); err == nil {
					t.Fatal("tampered witness hash passed verification")
				}
			}
			bad := *cert
			bad.SolutionFP ^= 1
			if err := bad.Verify(in, rep.Solution); err == nil {
				t.Fatal("tampered fingerprint passed verification")
			}
		})
	}
}

// TestProvenanceCappedNoEquilibriumClaim: a solution short of equilibrium
// must not be certified as one. The w/o-C solution is the game's start
// state, a game capped at zero iterations: when the Seq-BDC game of the same
// instance makes a transfer, a deviation improves that state, so its
// certificate must report Equilibrium=false — and still verify offline.
func TestProvenanceCappedNoEquilibriumClaim(t *testing.T) {
	in := provInstance(t, nil)
	woc, err := Run(in, Config{Method: Method{Seq, WoC}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(in, Config{Method: Method{Seq, BDC}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Transfers == 0 {
		t.Fatal("the Seq-BDC game made no transfer; the instance cannot test the claim")
	}
	cert := provenance.BuildCertificate(in, woc.Solution, provenance.ScopeFull)
	if cert.Equilibrium {
		t.Fatal("the w/o-C solution was certified an equilibrium, but the game transfers from it")
	}
	if err := cert.Verify(in, woc.Solution); err != nil {
		t.Fatalf("w/o-C certificate failed re-validation: %v", err)
	}
}

// TestProvenancePhase1Scans: the Sequential phase-1 path records its
// deadline-rejection scan events, and they agree with the Stats counters.
func TestProvenancePhase1Scans(t *testing.T) {
	in := provInstance(t, nil)
	cfg := Config{Method: Method{Seq, WoC}, Prov: provenance.NewLedger()}
	rep, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Provenance
	total := 0
	for _, evs := range l.Scans {
		total += len(evs)
		for _, e := range evs {
			if e.Arrive <= e.Expiry {
				t.Fatalf("scan event (w%d,s%d) arrive %v ≤ expiry %v — not a rejection",
					e.Worker, e.Task, e.Arrive, e.Expiry)
			}
		}
	}
	if total == 0 {
		t.Fatal("paper-default phase 1 recorded no deadline rejections")
	}
}

// TestProvenanceJSONLRoundTripReplay: a ledger survives serialization — the
// written-then-reread ledger replays to the same fingerprint and carries a
// certificate that still verifies.
func TestProvenanceJSONLRoundTripReplay(t *testing.T) {
	in := provInstance(t, nil)
	cfg := Config{Method: Method{Seq, BDC}, Seed: 3, Shards: 2,
		Prov: provenance.NewLedger()}
	rep, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.Provenance.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := provenance.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := provenance.Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	want := provenance.SolutionFingerprint(rep.Solution)
	if got := provenance.SolutionFingerprint(rr.Solution); got != want {
		t.Fatalf("reread replay fingerprint %016x, live %016x", got, want)
	}
	if back.Cert == nil {
		t.Fatal("certificate lost in serialization")
	}
	if err := back.Cert.Verify(in, rep.Solution); err != nil {
		t.Fatalf("reread certificate failed verification: %v", err)
	}
	if back.IterCount() != rep.Provenance.IterCount() ||
		back.TrialCount() != rep.Provenance.TrialCount() {
		t.Fatalf("record counts changed: iters %d→%d trials %d→%d",
			rep.Provenance.IterCount(), back.IterCount(),
			rep.Provenance.TrialCount(), back.TrialCount())
	}
}
