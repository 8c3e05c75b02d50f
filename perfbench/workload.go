package main

import (
	"fmt"
	"math/rand"

	"imtao"
)

// spec is one benchmark workload. README.md records why each was chosen
// and which layers it exercises or bypasses.
type spec struct {
	name    string
	dataset imtao.Dataset
	// tasks sets the instance size; workers and centers follow the scale
	// presets' density (one worker per four tasks, one center per 200).
	tasks int
	// grid is the side of the road grid built by imtao.NewRoadNetwork, at
	// its default oracle cache; 0 keeps the straight-line metric.
	grid   int
	method imtao.Method
	// sharded runs phase 2 through the sharded engine with the shard count
	// picked by its autotuner (imtao.WithShards(0)).
	sharded bool
	// audit attaches every user-facing recording channel to every solve: a
	// fresh provenance ledger, a fresh span tracer and a JSONL event stream.
	audit bool
	// setups is the number of fresh set-ups per run, one perturbed instance
	// each. Odd, so the median of a per-instance count is one instance's
	// exact value.
	setups int
	// solveMs is the nominal wall time of one warm solve on the reference
	// machine (2 vCPU). It converts --seconds into a fixed solve count so a
	// run is never time-boxed: the count depends on --seconds alone.
	solveMs float64
}

// workloads lists every workload in the order README.md describes them.
var workloads = []spec{
	{name: "syn10k-game", dataset: imtao.SYN, tasks: 10_000, grid: 64,
		method: imtao.SeqBDC, setups: 7, solveMs: 400},
	{name: "syn100k-sharded", dataset: imtao.SYN, tasks: 100_000, grid: 64,
		method: imtao.SeqBDC, sharded: true, setups: 3, solveMs: 3300},
	{name: "gm250k-nocollab", dataset: imtao.GM, tasks: 250_000,
		method: imtao.SeqWoC, setups: 5, solveMs: 160},
	{name: "syn10k-audit", dataset: imtao.SYN, tasks: 10_000, grid: 64,
		method: imtao.SeqBDC, audit: true, setups: 7, solveMs: 700},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// solvesPerSetup converts a measuring time into the fixed number of timed
// solves made on each set-up's instance: at least one, and together about
// seconds of solving at the nominal solve cost.
func (w spec) solvesPerSetup(seconds float64) int {
	total := int(seconds*1000/w.solveMs + 0.5)
	return max(1, (total+w.setups-1)/w.setups)
}

// baseSeed is the generator seed of every workload's base layout.
const baseSeed = 1

// jitterSigma is the standard deviation, in distance units, of the Gaussian
// move --seed applies to every task and worker of the base layout: 0.2% of
// the 2,000-unit service area and an eighth of the 64-grid's road spacing.
//
// The seed perturbs one layout instead of drawing a fresh one because the
// cost of an instance depends on its layout far more than on anything a
// program change does: over fresh SYN 10k layouts (seeds 1–8) one warm solve
// took 343–802 ms and U_ρ ranged 0.006–0.056, while moves of this size keep
// the layout's difficulty and still change every input coordinate.
const jitterSigma = 4.0

// baseInstance generates the workload's unpartitioned base layout.
func (w spec) baseInstance() (*imtao.Instance, error) {
	p := imtao.DefaultParams(w.dataset)
	p.NumTasks = w.tasks
	p.NumWorkers = w.tasks / 4
	p.NumCenters = w.tasks / 200
	p.Seed = baseSeed
	return imtao.Generate(p)
}

// perturb returns a copy of the base layout with every task and worker moved
// by the seeded jitter; centers stay put. Set-up k of a run with seed s
// draws from its own stream, so one run solves setups distinct instances
// and the same (s, k) always gives the same instance.
func perturb(base *imtao.Instance, seed int64, k int) *imtao.Instance {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	b := base.Bounds
	move := func(p imtao.Point) imtao.Point {
		p.X = min(max(p.X+rng.NormFloat64()*jitterSigma, b.Min.X), b.Max.X)
		p.Y = min(max(p.Y+rng.NormFloat64()*jitterSigma, b.Min.Y), b.Max.Y)
		return p
	}
	in := &imtao.Instance{
		Centers: append([]imtao.Center(nil), base.Centers...),
		Tasks:   append([]imtao.Task(nil), base.Tasks...),
		Workers: append([]imtao.Worker(nil), base.Workers...),
		Speed:   base.Speed,
		Bounds:  base.Bounds,
	}
	for i := range in.Tasks {
		in.Tasks[i].Loc = move(in.Tasks[i].Loc)
	}
	for i := range in.Workers {
		in.Workers[i].Loc = move(in.Workers[i].Loc)
	}
	return in
}

// network builds the workload's road network over the instance and installs
// it as the instance metric; nil for straight-line workloads.
func (w spec) network(raw *imtao.Instance) (*imtao.RoadNetwork, error) {
	if w.grid == 0 {
		return nil, nil
	}
	net, err := imtao.NewRoadNetwork(raw.Bounds, w.grid, w.grid, raw.Speed)
	if err != nil {
		return nil, err
	}
	raw.Metric = net
	return net, nil
}
