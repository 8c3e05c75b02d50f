package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// small returns the workload at a twentieth of its size with one set-up and
// one timed solve, so the whole pipeline runs in seconds.
func small(w spec) spec {
	w.tasks /= 20
	w.setups = 1
	w.solveMs = 1000
	return w
}

// TestSmoke runs every workload's timed path, checks and traced pass at a
// small size, so a refactor that breaks any of them fails here first.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err := w.measure(1, 1, true, spans, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
				t.Errorf("correct=%v failed=%d attempted=%d, want a checked cold solve and one timed solve",
					res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if res.Metrics["traced.valid"].Value != 1 {
				t.Error("traced pass did not reproduce the timed solve")
			}
			for _, d := range perLayer {
				if v := res.Metrics[d.name].Value; v != 0 && !w.usesLayer(d.name) {
					t.Errorf("%s = %v on a workload that bypasses its layer", d.name, v)
				}
			}
			// At this size the oracle cache holds every table after the cold
			// solve, so only the scratch-network timings are sure to be set.
			if w.grid > 0 && res.Metrics["roadnet.search_us"].Value == 0 {
				t.Error("a road-network workload timed no shortest-path search")
			}
			if w.sharded && res.Metrics["shard.count"].Value < 2 {
				t.Error("the sharded workload ran unsharded")
			}
			if w.audit && res.Metrics["provenance.iter_records"].Value == 0 {
				t.Error("the audit workload recorded no game iterations")
			}
			checkSpans(t, spans)

			res, err = w.measure(1, 1, false, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// checkSpans reads the span file back and checks every parent link points
// at a span of the same solve.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	solveOf := map[int64]int{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		solveOf[s.ID] = s.Solve
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range all {
		if s.Parent == 0 {
			if s.Name == "solve" {
				roots++
			}
			continue
		}
		if solve, ok := solveOf[s.Parent]; !ok || solve != s.Solve {
			t.Errorf("span %d %s: parent %d is not a span of solve %d", s.ID, s.Name, s.Parent, s.Solve)
		}
	}
	if roots == 0 {
		t.Error("no traced solve spans")
	}
}
