package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the helpers must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, _, ok := tailPercentile(seq(n)); ok {
			t.Errorf("n=%d: a percentile needs more than 10 samples", n)
		}
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{11, 100.0 / 11, 1},
		{30, 200.0 / 3, 20},
		{1000, 99, 990},
	} {
		pct, val, ok := tailPercentile(seq(c.n))
		if !ok || pct != c.pct || val != c.val {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v", c.n, pct, val, ok, c.pct, c.val)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > val {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond p%v, want %d", c.n, beyond, pct, tailBeyond)
		}
	}
}

func TestLPTMakespan(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		jobs []time.Duration
		p    int
		want time.Duration
	}{
		{nil, 2, 0},
		{ms(3, 5, 3, 4, 3), 1, 18 * time.Millisecond},
		// Longest first: 5|4, 3 joins 4, 3 joins 5, 3 joins 7. The optimum is 9;
		// LPT's 10 is the documented definition, not the optimum.
		{ms(3, 5, 3, 4, 3), 2, 10 * time.Millisecond},
		{ms(3, 5, 3, 4, 3), 8, 5 * time.Millisecond},
		{ms(7, 7), 0, 14 * time.Millisecond},
	} {
		if got := lptMakespan(c.jobs, c.p); got != c.want {
			t.Errorf("lptMakespan(%v, %d) = %v, want %v", c.jobs, c.p, got, c.want)
		}
	}
}

func TestRefaultRatio(t *testing.T) {
	for _, c := range []struct {
		searches, fresh int64
		want            float64
	}{
		{0, 0, 0},
		{100, 100, 0},
		{100, 25, 0.75},
		{3056, 0, 1},
	} {
		if got := refaultRatio(c.searches, c.fresh); got != c.want {
			t.Errorf("refaultRatio(%d, %d) = %v, want %v", c.searches, c.fresh, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
