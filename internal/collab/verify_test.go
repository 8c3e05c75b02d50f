package collab

import (
	"math/rand"
	"strings"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/provenance"
)

// verdict returns VerifyEquilibrium's verdict on sol after checking that
// the three ways of reaching it agree: the certificate path (nil assigner),
// the plain full-trial loop (Sequential behind a wrapper the engine does not
// recognise), and provenance.BuildCertificate's Equilibrium flag.
func verdict(t *testing.T, in *model.Instance, sol *model.Solution) bool {
	t.Helper()
	wrapped := func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		return assign.Sequential(in, c, ws, ts)
	}
	seq := VerifyEquilibrium(in, sol, nil) == nil
	full := VerifyEquilibrium(in, sol, wrapped) == nil
	cert := provenance.BuildCertificate(in, sol, provenance.ScopeFull).Equilibrium
	if seq != cert || full != cert {
		t.Fatalf("verdicts differ: certificate path %v, full-trial loop %v, certificate %v", seq, full, cert)
	}
	return seq
}

// TestVerifyEquilibriumAcceptsRunOutput: every run output verifies, and on
// run outputs and phase-1 states alike VerifyEquilibrium answers nil
// exactly when the certificate claims an equilibrium.
func TestVerifyEquilibriumAcceptsRunOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	improvable := 0
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 2+rng.Intn(4), 4+rng.Intn(10), 8+rng.Intn(30))
		p1 := phase1(in)
		out := Run(in, p1, seqConfig())
		if !verdict(t, in, out.Solution) {
			t.Fatalf("trial %d: Algorithm 3 outcome rejected: %v", trial,
				VerifyEquilibrium(in, out.Solution, nil))
		}
		if !verdict(t, in, NoCollaboration(in, p1)) {
			improvable++
		}
	}
	if improvable == 0 {
		t.Fatal("no phase-1 state was improvable; the rejecting verdicts went unchecked")
	}
}

func TestVerifyEquilibriumRejectsPhase1WhenImprovable(t *testing.T) {
	// On the Fig. 1 scenario the phase-1 (no collaboration) solution is NOT
	// an equilibrium: center 2 can improve by borrowing c0's spare worker.
	in := paperFig1()
	p1 := phase1(in)
	sol := NoCollaboration(in, p1)
	if verdict(t, in, sol) {
		t.Fatal("improvable state accepted as equilibrium")
	}
	err := VerifyEquilibrium(in, sol, nil)
	if !strings.Contains(err.Error(), "can improve") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestVerifyEquilibriumFullyAssigned(t *testing.T) {
	// A solution with every center at ρ = 1 is trivially an equilibrium.
	rng := rand.New(rand.NewSource(142))
	in := randomInstance(rng, 2, 12, 4) // plenty of workers
	p1 := phase1(in)
	out := Run(in, p1, seqConfig())
	if out.Solution.AssignedCount() == len(in.Tasks) {
		if err := VerifyEquilibrium(in, out.Solution, nil); err != nil {
			t.Fatal(err)
		}
	}
}
