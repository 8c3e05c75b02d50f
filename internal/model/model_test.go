package model

import (
	"math"
	"strings"
	"sync"
	"testing"

	"imtao/internal/geo"
)

// tinyInstance builds a 2-center, 2-worker, 3-task instance used across the
// model tests.
func tinyInstance() *Instance {
	in := &Instance{
		Centers: []Center{
			{ID: 0, Loc: geo.Pt(0, 0), Tasks: []TaskID{0, 1}, Workers: []WorkerID{0}},
			{ID: 1, Loc: geo.Pt(100, 0), Tasks: []TaskID{2}, Workers: []WorkerID{1}},
		},
		Tasks: []Task{
			{ID: 0, Center: 0, Loc: geo.Pt(10, 0), Expiry: 1, Reward: 1},
			{ID: 1, Center: 0, Loc: geo.Pt(0, 10), Expiry: 1, Reward: 1},
			{ID: 2, Center: 1, Loc: geo.Pt(110, 0), Expiry: 1, Reward: 1},
		},
		Workers: []Worker{
			{ID: 0, Home: 0, Loc: geo.Pt(5, 5), MaxT: 4},
			{ID: 1, Home: 1, Loc: geo.Pt(95, 0), MaxT: 4},
		},
		Speed:  100,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 100)),
	}
	return in
}

func TestValidateOK(t *testing.T) {
	if err := tinyInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"zero speed", func(in *Instance) { in.Speed = 0 }, "speed"},
		{"bad center id", func(in *Instance) { in.Centers[1].ID = 5 }, "ID"},
		{"bad task id", func(in *Instance) { in.Tasks[0].ID = 9 }, "ID"},
		{"bad worker id", func(in *Instance) { in.Workers[0].ID = 9 }, "ID"},
		{"task dangling center", func(in *Instance) { in.Tasks[0].Center = 7 }, "center"},
		{"worker dangling center", func(in *Instance) { in.Workers[0].Home = 7 }, "center"},
		{"negative maxT", func(in *Instance) { in.Workers[0].MaxT = -1 }, "MaxT"},
		{"center lists foreign task", func(in *Instance) { in.Centers[0].Tasks = []TaskID{2} }, "lists task"},
		{"center lists foreign worker", func(in *Instance) { in.Centers[0].Workers = []WorkerID{1} }, "lists worker"},
		{"NaN center x", func(in *Instance) { in.Centers[1].Loc.X = math.NaN() }, "not finite"},
		{"+Inf center y", func(in *Instance) { in.Centers[0].Loc.Y = math.Inf(1) }, "not finite"},
		{"NaN task y", func(in *Instance) { in.Tasks[2].Loc.Y = math.NaN() }, "not finite"},
		{"-Inf task x", func(in *Instance) { in.Tasks[0].Loc.X = math.Inf(-1) }, "not finite"},
		{"NaN worker x", func(in *Instance) { in.Workers[1].Loc.X = math.NaN() }, "not finite"},
		{"-Inf worker y", func(in *Instance) { in.Workers[0].Loc.Y = math.Inf(-1) }, "not finite"},
		{"NaN expiry", func(in *Instance) { in.Tasks[1].Expiry = math.NaN() }, "expiry"},
		{"+Inf expiry", func(in *Instance) { in.Tasks[1].Expiry = math.Inf(1) }, "expiry"},
		{"negative expiry", func(in *Instance) { in.Tasks[0].Expiry = -0.5 }, "expiry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := tinyInstance()
			c.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestTravelTime(t *testing.T) {
	in := tinyInstance()
	got := in.TravelTime(geo.Pt(0, 0), geo.Pt(100, 0))
	if got != 1 {
		t.Errorf("TravelTime = %v, want 1", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := tinyInstance()
	cp := in.Clone()
	cp.Centers[0].Tasks[0] = 99
	cp.Tasks[0].Expiry = 42
	cp.Workers[0].MaxT = 0
	if in.Centers[0].Tasks[0] == 99 || in.Tasks[0].Expiry == 42 || in.Workers[0].MaxT == 0 {
		t.Fatal("Clone shares memory with the original")
	}
}

// TestTaskGeometryCache: the cache is made once per instance, even by
// concurrent first callers, and a clone or a slab rebuild starts it afresh.
func TestTaskGeometryCache(t *testing.T) {
	in := tinyInstance()
	in.EnsureHot()
	mk := func() any { return new(int) }
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = in.TaskGeometry(mk)
		}()
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("concurrent first callers got different caches")
		}
	}
	if in.TaskGeometry(mk) != got[0] {
		t.Fatal("a second call made a new cache")
	}
	if in.Clone().TaskGeometry(mk) == got[0] {
		t.Fatal("a clone got its original's cache")
	}
	in.Tasks = append(in.Tasks, Task{ID: 3, Center: NoCenter, Loc: geo.Pt(1, 1), Expiry: 1})
	in.EnsureHot()
	if in.TaskGeometry(mk) == got[0] {
		t.Fatal("the cache survived a slab rebuild")
	}
}

func TestSolutionCounts(t *testing.T) {
	in := tinyInstance()
	s := NewSolution(in)
	if s.AssignedCount() != 0 {
		t.Fatal("fresh solution must be empty")
	}
	s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{0, 1}}}
	s.PerCenter[1].Routes = []Route{{Worker: 1, Center: 1, Tasks: []TaskID{2}}}
	if got := s.AssignedCount(); got != 3 {
		t.Errorf("AssignedCount = %d", got)
	}
	tasks := s.AssignedTasks()
	if len(tasks) != 3 || !tasks[0] || !tasks[1] || !tasks[2] {
		t.Errorf("AssignedTasks = %v", tasks)
	}
}

func TestCheckConsistencyOK(t *testing.T) {
	in := tinyInstance()
	s := NewSolution(in)
	s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{0, 1}}}
	s.PerCenter[1].Routes = []Route{{Worker: 1, Center: 1, Tasks: []TaskID{2}}}
	if err := s.CheckConsistency(in); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyViolations(t *testing.T) {
	in := tinyInstance()
	cases := []struct {
		name  string
		build func() *Solution
		want  string
	}{
		{"duplicate task", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{0, 0}}}
			return s
		}, "assigned by both"},
		{"duplicate worker", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{
				{Worker: 0, Center: 0, Tasks: []TaskID{0}},
				{Worker: 0, Center: 0, Tasks: []TaskID{1}},
			}
			return s
		}, "routed by both"},
		{"foreign task", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{2}}}
			return s
		}, "belongs to center"},
		{"wrong pickup center", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 1, Tasks: []TaskID{0}}}
			return s
		}, "picks up"},
		{"unknown worker", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{{Worker: 42, Center: 0, Tasks: nil}}
			return s
		}, "references worker"},
		{"unknown task", func() *Solution {
			s := NewSolution(in)
			s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{42}}}
			return s
		}, "references task"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().CheckConsistency(in)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestAssignmentAssignedCount(t *testing.T) {
	a := Assignment{Routes: []Route{
		{Tasks: []TaskID{1, 2}},
		{Tasks: nil},
		{Tasks: []TaskID{3}},
	}}
	if got := a.AssignedCount(); got != 3 {
		t.Errorf("AssignedCount = %d", got)
	}
}

func TestDebugStrings(t *testing.T) {
	r := Route{Worker: 3, Center: 1, Tasks: []TaskID{5, 9, 2}}
	if got := r.String(); got != "w3@c1 -> [5 9 2]" {
		t.Errorf("Route.String = %q", got)
	}
	tr := Transfer{Src: 0, Dst: 2, Worker: 4}
	if got := tr.String(); got != "w4: c0=>c2" {
		t.Errorf("Transfer.String = %q", got)
	}
	in := tinyInstance()
	s := NewSolution(in)
	s.PerCenter[0].Routes = []Route{{Worker: 0, Center: 0, Tasks: []TaskID{0, 1}}}
	s.Transfers = []Transfer{tr}
	if got := s.Summary(); got != "assigned=2 transfers=1 per-center=[2 0]" {
		t.Errorf("Solution.Summary = %q", got)
	}
	if got := in.Summary(); !strings.Contains(got, "centers=2") || !strings.Contains(got, "tasks=3") {
		t.Errorf("Instance.Summary = %q", got)
	}
}
