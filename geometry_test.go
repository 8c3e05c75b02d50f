package imtao

import (
	"fmt"
	"slices"
	"testing"

	"imtao/internal/provenance"
)

// Every solve of one partitioned instance shares the instance's task
// geometry: each center's nearest-task order and neighbour lists, built the
// first time a solve needs them (DESIGN.md §11). These tests pin that the
// sharing changes no answer, and that an edited instance never reads a part
// built for what it was before the edit.

// geometryRaw is an unpartitioned SYN instance of 2,000 tasks, 500 workers
// and 10 centers on a 32² road grid.
func geometryRaw(t *testing.T) *Instance {
	t.Helper()
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 2_000, 500, 10
	p.Seed = 3
	raw, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewRoadNetwork(raw.Bounds, 32, 32, raw.Speed)
	if err != nil {
		t.Fatal(err)
	}
	raw.Metric = net
	return raw
}

// partitioned returns Partition(raw), failing the test on error.
func partitioned(t *testing.T, raw *Instance) *Instance {
	t.Helper()
	in, err := Partition(raw)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// solveKey runs m on in and condenses the answer: the solution's
// fingerprint, the assigned count, U_ρ and the game's length.
func solveKey(t *testing.T, in *Instance, m Method, opts ...RunOption) string {
	t.Helper()
	rep, err := Run(in, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x assigned %d U_ρ %v iterations %d",
		provenance.SolutionFingerprint(rep.Solution), rep.Assigned, rep.Unfairness, rep.Iterations)
}

var seqMethods = []Method{SeqWoC, SeqDC, SeqBDC, SeqRBDC}

// TestSharedGeometryBackToBack solves one partitioned road-metric instance
// with every Seq method back to back, unsharded and on three shards, and
// checks each answer against a solve of a freshly partitioned copy, whose
// geometry is its own.
func TestSharedGeometryBackToBack(t *testing.T) {
	raw := geometryRaw(t)
	in := partitioned(t, raw)
	for _, shards := range []int{1, 3} {
		for _, m := range seqMethods {
			got := solveKey(t, in, m, WithShards(shards))
			want := solveKey(t, partitioned(t, raw), m, WithShards(shards))
			if got != want {
				t.Errorf("%s on %d shards: %s on the shared instance, %s on a fresh one", m, shards, got, want)
			}
		}
	}
}

// TestSharedGeometryStaleEdits solves an instance, edits it, and checks
// that the next solve equals a solve of a freshly built instance with the
// same edit: (i) a center moved and the instance partitioned again, (ii)
// every 7th task moved 300 units right and the instance partitioned again,
// (iii) two centers' Tasks slices replaced by new ones of the same lengths
// that trade one task, and (iv) a clone whose center handed its tasks to a
// neighbour, after which the original must still solve as before.
func TestSharedGeometryStaleEdits(t *testing.T) {
	edits := []struct {
		name string
		// edit turns a solved partitioned instance into the instance to
		// solve next.
		edit func(in *Instance) *Instance
		// keepsOriginal marks an edit that leaves the solved instance as
		// it was.
		keepsOriginal bool
	}{
		{"moved center", func(in *Instance) *Instance {
			in.Centers[0].Loc.X += 150
			in.Centers[0].Loc.Y -= 80
			return partitioned(t, in)
		}, false},
		{"moved tasks", func(in *Instance) *Instance {
			for i := 0; i < len(in.Tasks); i += 7 {
				in.Tasks[i].Loc.X += 300
			}
			return partitioned(t, in)
		}, false},
		{"replaced tasks", func(in *Instance) *Instance {
			a, b := &in.Centers[2], &in.Centers[3]
			a.Tasks, b.Tasks = slices.Clone(a.Tasks), slices.Clone(b.Tasks)
			a.Tasks[0], b.Tasks[0] = b.Tasks[0], a.Tasks[0]
			in.Tasks[a.Tasks[0]].Center, in.Tasks[b.Tasks[0]].Center = a.ID, b.ID
			return in
		}, false},
		{"edited clone", func(in *Instance) *Instance {
			cl := in.Clone()
			from, to := &cl.Centers[4], &cl.Centers[5]
			for _, id := range from.Tasks {
				cl.Tasks[id].Center = to.ID
			}
			to.Tasks = append(to.Tasks, from.Tasks...)
			from.Tasks = nil
			return cl
		}, true},
	}
	for _, e := range edits {
		for _, m := range []Method{SeqWoC, SeqBDC} {
			in := partitioned(t, geometryRaw(t))
			first := solveKey(t, in, m)
			got := solveKey(t, e.edit(in), m)
			want := solveKey(t, e.edit(partitioned(t, geometryRaw(t))), m)
			if got != want {
				t.Errorf("%s, %s: %s after the edit, %s on a fresh instance", e.name, m, got, want)
			}
			if got == first {
				t.Errorf("%s, %s: the edit did not change the answer", e.name, m)
			}
			if again := solveKey(t, in, m); e.keepsOriginal && again != first {
				t.Errorf("%s, %s: the original solves as %s after the edit, %s before", e.name, m, again, first)
			}
		}
	}
}
