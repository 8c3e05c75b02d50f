// Topology study: does IMTAO's advantage survive on structured city shapes?
// The paper evaluates uniform (SYN) and clustered (GM) geometry; this
// example adds a linear corridor city, a twin-city metro and a ring road,
// plus a comparison of center-placement strategies (random vs. k-means of
// demand) on each.
//
//	go run ./examples/topology
package main

import (
	"fmt"
	"log"
	"math/rand"

	"imtao"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/voronoi"
	"imtao/internal/workload"
)

func main() {
	params := imtao.DefaultParams(imtao.SYN)
	params.NumTasks, params.NumWorkers, params.NumCenters = 300, 75, 12
	params.Seed = 6

	fmt.Println("collaboration gain by city topology (300 tasks, 75 couriers, 12 depots):")
	fmt.Printf("  %-12s %12s %12s %8s %14s %14s\n",
		"topology", "w/o-C", "Seq-BDC", "gain", "U w/o-C", "U Seq-BDC")

	for _, preset := range []workload.Preset{workload.Corridor, workload.TwinCities, workload.RingRoad} {
		raw, err := workload.GeneratePreset(preset, params)
		if err != nil {
			log.Fatal(err)
		}
		in, err := imtao.Partition(raw)
		if err != nil {
			log.Fatal(err)
		}
		woc, err := imtao.Run(in, imtao.SeqWoC)
		if err != nil {
			log.Fatal(err)
		}
		bdc, err := imtao.Run(in, imtao.SeqBDC)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %8d/300 %8d/300 %7.1f%% %14.3f %14.3f\n",
			preset, woc.Assigned, bdc.Assigned,
			100*float64(bdc.Assigned-woc.Assigned)/float64(woc.Assigned),
			woc.Unfairness, bdc.Unfairness)
	}

	// Center placement: random (as in the paper) vs k-means of the demand.
	fmt.Println("\ncenter placement on the twin-city metro (Seq-BDC):")
	raw, err := workload.GeneratePreset(workload.TwinCities, params)
	if err != nil {
		log.Fatal(err)
	}
	for _, placement := range []string{"random", "k-means of demand"} {
		scene := raw.Clone()
		if placement == "k-means of demand" {
			pts := make([]geo.Point, len(scene.Tasks))
			for i, t := range scene.Tasks {
				pts[i] = t.Loc
			}
			centers, err := voronoi.KMeansWeighted(rand.New(rand.NewSource(1)), pts, nil, len(scene.Centers), 40)
			if err != nil {
				log.Fatal(err)
			}
			for i := range scene.Centers {
				scene.Centers[i].Loc = centers[i]
			}
		}
		in, err := imtao.Partition(scene)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.Run(in, core.Config{Method: core.Method{Assigner: core.Seq, Collab: core.BDC}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s assigned %3d/300, unfairness %.3f, %d transfers\n",
			placement, rep.Assigned, rep.Unfairness, rep.Transfers)
	}
}
