package collab

import (
	"fmt"
	"slices"

	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/provenance"
)

// VerifyEquilibrium checks that a collaboration outcome is a fixed point of
// the best-response dynamics of Algorithm 3: for every center whose ratio is
// below one, no single additional available worker would strictly raise its
// assignment ratio under the given assigner. It returns nil at equilibrium
// and a descriptive error naming an improving deviation otherwise.
//
// The available pool and each center's worker set are reconstructed from
// the solution (provenance.WorkerSets): every worker that appears in no
// route and was never transferred is available, from its home center.
//
// With a nil or assign.Sequential assigner the verdict is the equilibrium
// certificate's (provenance.BuildCertificate, ScopeFull), whose sweep uses
// the same exact accelerations as Run: candidates outside a center's
// admission slack are skipped (their deviation provably cannot improve ρ),
// and the rest resume from one baseline run per center. Other assigners get
// one full assigner run per candidate.
func VerifyEquilibrium(in *model.Instance, sol *model.Solution, assigner Assigner) error {
	if isSequentialAssigner(assigner) {
		cert := provenance.BuildCertificate(in, sol, provenance.ScopeFull)
		for _, wit := range cert.Centers {
			if wit.BestRho > wit.Rho+rhoEps {
				return improvable(wit.Center, wit.Rho, wit.BestRho, wit.BestWorker)
			}
		}
		return nil
	}
	in.PrepareMetric()
	pool, workers := provenance.WorkerSets(in, sol)
	for ci := range in.Centers {
		center := in.Center(model.CenterID(ci))
		rho := metrics.Ratio(sol.PerCenter[ci].AssignedCount(), len(center.Tasks))
		if rho >= 1 {
			continue
		}
		for _, cand := range pool {
			if in.Worker(cand).Home == center.ID {
				continue
			}
			trial := assigner(in, center, append(slices.Clip(workers[ci]), cand), center.Tasks)
			if newRho := metrics.Ratio(trial.AssignedCount(), len(center.Tasks)); newRho > rho+rhoEps {
				return improvable(center.ID, rho, newRho, cand)
			}
		}
	}
	return nil
}

func improvable(ci model.CenterID, rho, newRho float64, w model.WorkerID) error {
	return fmt.Errorf(
		"collab: center %d can improve ρ %.4f → %.4f by borrowing worker %d — not an equilibrium",
		ci, rho, newRho, w)
}
