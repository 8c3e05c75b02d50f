// Logistics fleet planning: a JD-Logistics-style what-if study over a large
// generated network. The operator compares all eight methods of the paper on
// the same snapshot, then sweeps the courier head-count to find the fleet
// size at which every parcel can be delivered before its deadline.
//
//	go run ./examples/logistics
package main

import (
	"fmt"
	"log"
	"time"

	"imtao"
)

func main() {
	// A clustered (gMission-like) city with 30 depots, 150 couriers and 600
	// same-day parcels.
	params := imtao.DefaultParams(imtao.GM)
	params.NumCenters = 30
	params.NumWorkers = 150
	params.NumTasks = 600
	params.Seed = 11

	raw, err := imtao.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	in, err := imtao.Partition(raw)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("method comparison on one snapshot (600 parcels, 150 couriers, 30 depots):")
	fmt.Printf("  %-10s %9s %11s %11s %10s\n", "method", "delivered", "unfairness", "transfers", "cpu")
	for _, m := range imtao.Methods() {
		opts := []imtao.RunOption{imtao.WithSeed(1)}
		if m == imtao.OptBDC || m == imtao.OptRBDC || m == imtao.OptDC || m == imtao.OptWoC {
			// The exact assigner needs a budget at this scale (the paper
			// reports thousands of seconds for its unbounded runs). BDC
			// re-runs the assigner once per candidate dispatch, so even a
			// small per-center budget accumulates to minutes. 10,000 search
			// steps is about 10 ms of search per binding call.
			opts = append(opts, imtao.WithOptBudget(10000))
		}
		rep, err := imtao.Run(in, m, opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %9d %11.3f %11d %10s\n",
			m, rep.Assigned, rep.Unfairness, rep.Transfers,
			(rep.Phase1Time + rep.Phase2Time).Round(time.Millisecond))
	}

	// Fleet sizing: how many couriers until the network clears every parcel?
	fmt.Println("\nfleet sizing sweep with Seq-BDC:")
	fmt.Printf("  %-10s %10s %12s\n", "couriers", "delivered", "unfairness")
	for _, w := range []int{150, 175, 200, 225, 250} {
		p := params
		p.NumWorkers = w
		rep, err := imtao.Solve(p, imtao.SeqBDC)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10d %6d/600 %12.3f\n", w, rep.Assigned, rep.Unfairness)
		if rep.Assigned == p.NumTasks {
			fmt.Printf("\n→ %d couriers clear the full parcel load.\n", w)
			break
		}
	}
}
