package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/voronoi"
)

// bruteCenter is the reference nearest center of p: the smallest index among
// the centers at the least squared distance.
func bruteCenter(in *model.Instance, p geo.Point) model.CenterID {
	best, bd := 0, math.Inf(1)
	for i, c := range in.Centers {
		if d := p.Dist2(c.Loc); d < bd {
			best, bd = i, d
		}
	}
	return model.CenterID(best)
}

// checkPartition requires out to be the brute-force partition of in: every
// task and worker labelled with its bruteCenter, and every center listing
// exactly the IDs labelled with it, in ascending order (nil when none).
func checkPartition(t *testing.T, in, out *model.Instance) {
	t.Helper()
	tasks := make([][]model.TaskID, len(in.Centers))
	for i, s := range in.Tasks {
		c := bruteCenter(in, s.Loc)
		if got := out.Tasks[i].Center; got != c {
			t.Fatalf("task %d at %v: center %d, brute force %d", i, s.Loc, got, c)
		}
		tasks[c] = append(tasks[c], model.TaskID(i))
	}
	workers := make([][]model.WorkerID, len(in.Centers))
	for i, w := range in.Workers {
		c := bruteCenter(in, w.Loc)
		if got := out.Workers[i].Home; got != c {
			t.Fatalf("worker %d at %v: home %d, brute force %d", i, w.Loc, got, c)
		}
		workers[c] = append(workers[c], model.WorkerID(i))
	}
	for ci, c := range out.Centers {
		if !slices.Equal(c.Tasks, tasks[ci]) || (c.Tasks == nil) != (tasks[ci] == nil) {
			t.Fatalf("center %d tasks %v, want %v", ci, c.Tasks, tasks[ci])
		}
		if !slices.Equal(c.Workers, workers[ci]) || (c.Workers == nil) != (workers[ci] == nil) {
			t.Fatalf("center %d workers %v, want %v", ci, c.Workers, workers[ci])
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

// pointInstance builds an unpartitioned instance over the given locations.
func pointInstance(bounds geo.Rect, centers, tasks, workers []geo.Point) *model.Instance {
	in := &model.Instance{Speed: 1, Bounds: bounds}
	for i, p := range centers {
		in.Centers = append(in.Centers, model.Center{ID: model.CenterID(i), Loc: p})
	}
	for i, p := range tasks {
		in.Tasks = append(in.Tasks, model.Task{ID: model.TaskID(i), Center: model.NoCenter, Loc: p, Expiry: 1})
	}
	for i, p := range workers {
		in.Workers = append(in.Workers, model.Worker{ID: model.WorkerID(i), Home: model.NoCenter, Loc: p, MaxT: 1})
	}
	return in
}

// Partition equals the brute-force nearest-center assignment on random and
// lattice layouts, for points on bisectors and points outside the bounds.
// The largest layout spans several lookup blocks, so its lookups run on
// concurrent goroutines.
func TestPartitionMatchesBruteForce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(27))
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	uniform := func(n int, lo, hi float64) []geo.Point {
		ps := make([]geo.Point, n)
		for i := range ps {
			ps[i] = geo.Pt(lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo))
		}
		return ps
	}
	// lattice draws n points of the step-wide lattice over [lo, hi]²; on a
	// lattice of sites, the half-step points sit on bisectors exactly.
	lattice := func(n int, step, lo, hi float64) []geo.Point {
		k := int((hi-lo)/step) + 1
		ps := make([]geo.Point, n)
		for i := range ps {
			ps[i] = geo.Pt(lo+float64(rng.Intn(k))*step, lo+float64(rng.Intn(k))*step)
		}
		return ps
	}
	distinct := func(ps []geo.Point) []geo.Point {
		var out []geo.Point
		for _, p := range ps {
			if !slices.ContainsFunc(out, p.Eq) {
				out = append(out, p)
			}
		}
		return out
	}
	// onBisectors returns n points on the bisectors of random site pairs.
	onBisectors := func(sites []geo.Point, n int) []geo.Point {
		ps := make([]geo.Point, n)
		for i := range ps {
			a, b := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
			d := b.Sub(a)
			ps[i] = geo.Mid(a, b).Add(geo.Pt(-d.Y, d.X).Scale(rng.Float64()*2 - 1))
		}
		return ps
	}
	for _, size := range []struct{ centers, tasks, workers int }{
		{1, 400, 100}, {2, 400, 100}, {3, 400, 100}, {300, 400, 100},
		{300, 2 * partitionBlock, partitionBlock},
	} {
		for trial := 0; trial < 3; trial++ {
			// Random sites; tasks and workers uniform over a band around the
			// bounds, a third as many again on bisectors.
			sites := uniform(size.centers, 0, 2000)
			tasks := append(uniform(size.tasks, -500, 2500), onBisectors(sites, size.tasks/2)...)
			workers := append(uniform(size.workers, -500, 2500), onBisectors(sites, size.workers/2)...)
			in := pointInstance(bounds, sites, tasks, workers)
			out, _, err := Partition(in)
			if err != nil {
				t.Fatalf("random %+v: %v", size, err)
			}
			checkPartition(t, in, out)

			// Lattice sites (step 100) with tasks and workers on the
			// half-step lattice: dense exact ties, inside and outside.
			sites = distinct(lattice(size.centers, 100, 0, 2000))
			in = pointInstance(bounds, sites,
				lattice(size.tasks, 50, -300, 2300), lattice(size.workers, 50, -300, 2300))
			out, _, err = Partition(in)
			if err != nil {
				t.Fatalf("lattice %+v: %v", size, err)
			}
			checkPartition(t, in, out)
		}
	}
}

// Partition rejects a center, task or worker whose location has a NaN or
// infinite coordinate, naming the entity, instead of looking it up.
func TestPartitionRejectsNonFiniteLocations(t *testing.T) {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	for _, kind := range []string{"center", "task", "worker"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			in := pointInstance(bounds,
				[]geo.Point{geo.Pt(10, 10), geo.Pt(90, 90)},
				[]geo.Point{geo.Pt(20, 20), geo.Pt(30, 70)},
				[]geo.Point{geo.Pt(50, 50), geo.Pt(80, 10)})
			switch kind {
			case "center":
				in.Centers[1].Loc.Y = v
			case "task":
				in.Tasks[1].Loc.X = v
			case "worker":
				in.Workers[1].Loc.Y = v
			}
			out, _, err := Partition(in)
			if !errors.Is(err, model.ErrBadLocation) || out != nil {
				t.Fatalf("%s at %v: got %v, want ErrBadLocation", kind, v, err)
			}
			if want := kind + " 1 at"; !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at %v: error %q does not name %q", kind, v, err, want)
			}
		}
	}
}

// One pair of Eps-close sites anywhere in a long site list is a duplicate;
// sites 2·Eps apart on one axis are distinct.
func TestPartitionDuplicateSites(t *testing.T) {
	rng := rand.New(rand.NewSource(5000))
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	tasks := []geo.Point{geo.Pt(1, 1), geo.Pt(1999, 3)}
	for trial := 0; trial < 6; trial++ {
		sites := make([]geo.Point, 5000)
		for i := range sites {
			sites[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		}
		i, j := rng.Intn(len(sites)), rng.Intn(len(sites))
		if i == j {
			j = (i + 1) % len(sites)
		}
		for _, c := range []struct {
			off geo.Point
			dup bool
		}{
			{geo.Pt(geo.Eps/2, -geo.Eps/2), true},
			{geo.Pt(0, 0), true},
			{geo.Pt(2*geo.Eps, 0), false},
			{geo.Pt(0, -2*geo.Eps), false},
		} {
			sites[j] = sites[i].Add(c.off)
			in := pointInstance(bounds, sites, tasks, nil)
			out, _, err := Partition(in)
			if c.dup {
				if !errors.Is(err, voronoi.ErrDuplicateSites) {
					t.Fatalf("sites %d and %d offset by %v: got %v, want ErrDuplicateSites", i, j, c.off, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("sites %d and %d offset by %v: %v", i, j, c.off, err)
			}
			checkPartition(t, in, out)
		}
	}
}

// decodeCoord maps one fuzzer byte to a coordinate: a non-finite value, one
// large enough that a squared distance overflows, or a point of a lattice
// (step 10, or the inexact 10/3) that spans the bounds [0, 1000] and the
// band around them.
func decodeCoord(b byte, step float64) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return 1e300
	case 251:
		return -1e300
	}
	return float64(int(b)-125) * step
}

// decodeInstance decodes up to 8 centers, 16 tasks and 16 workers from data.
// Bit 0 of the first byte picks the lattice step and the next three bytes
// the center, task and worker counts; each entity then takes two coordinate
// bytes, and entities run out with the bytes.
func decodeInstance(data []byte) *model.Instance {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	if len(data) < 4 {
		return pointInstance(bounds, nil, nil, nil)
	}
	step := 10.0
	if data[0]&1 == 1 {
		step = 10.0 / 3
	}
	counts := [3]int{1 + int(data[1])%8, int(data[2]) % 17, int(data[3]) % 17}
	data = data[4:]
	var pts [3][]geo.Point
	for kind, n := range counts {
		for ; n > 0 && len(data) >= 2; n-- {
			pts[kind] = append(pts[kind], geo.Pt(decodeCoord(data[0], step), decodeCoord(data[1], step)))
			data = data[2:]
		}
	}
	return pointInstance(bounds, pts[0], pts[1], pts[2])
}

// FuzzPartition decodes a small instance, non-finite coordinates allowed,
// and requires Partition never to panic: a non-finite location is rejected
// with ErrBadLocation, coinciding centers with ErrDuplicateSites, and every
// other instance partitions exactly as brute force does.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 3, 6, 2, 130, 130, 170, 130, 150, 170, 140, 140, 150, 150, 160, 130, 125, 125, 200, 200, 150, 140, 160, 165, 140, 180})
	f.Add([]byte{1, 7, 16, 16, 100, 100, 140, 120, 110, 150, 160, 160, 130, 105, 120, 120, 125, 135, 115, 140, 252, 125, 150, 251})
	f.Add([]byte{0, 1, 2, 1, 130, 130, 150, 150, 255, 140, 145, 145})
	f.Add([]byte{0, 2, 1, 0, 130, 130, 254, 150, 140, 140})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeInstance(data)
		out, _, err := Partition(in)
		finite, dup := true, false
		for i, c := range in.Centers {
			finite = finite && c.Loc.Finite()
			for _, d := range in.Centers[i+1:] {
				dup = dup || c.Loc.Eq(d.Loc)
			}
		}
		for _, s := range in.Tasks {
			finite = finite && s.Loc.Finite()
		}
		for _, w := range in.Workers {
			finite = finite && w.Loc.Finite()
		}
		switch {
		case len(in.Centers) == 0:
			if !errors.Is(err, voronoi.ErrTooFewSites) {
				t.Fatalf("no centers: got %v", err)
			}
		case !finite:
			if !errors.Is(err, model.ErrBadLocation) {
				t.Fatalf("non-finite location: got %v", err)
			}
		case dup:
			if !errors.Is(err, voronoi.ErrDuplicateSites) {
				t.Fatalf("coinciding centers: got %v", err)
			}
		case err != nil:
			t.Fatal(err)
		default:
			checkPartition(t, in, out)
		}
	})
}
