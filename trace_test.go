// Integration tests for the telemetry surface: a Run under WithTrace must
// emit a well-formed JSONL stream whose game_iter events carry a monotone
// non-decreasing potential Φ — the convergence guarantee of the phase-2
// best-response dynamics (DESIGN.md §9) — and whose final state matches the
// returned Report exactly.
package imtao

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// traceEvent is the decoded form of one JSONL line. Unknown fields land in
// nothing; each assertion pulls what it needs from Raw.
type traceEvent struct {
	Seq   int64   `json:"seq"`
	TMs   float64 `json:"t_ms"`
	Event string  `json:"event"`
	Raw   map[string]json.RawMessage
}

func parseTrace(t *testing.T, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var events []traceEvent
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if err := json.Unmarshal(line, &ev.Raw); err != nil {
			t.Fatalf("invalid JSONL object %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func field[T any](t *testing.T, ev traceEvent, key string) T {
	t.Helper()
	raw, ok := ev.Raw[key]
	if !ok {
		t.Fatalf("event %q (seq %d) lacks field %q", ev.Event, ev.Seq, key)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("event %q field %q: %v", ev.Event, key, err)
	}
	return v
}

// TestTraceMonotonePhi runs the proposed method on both datasets and checks
// the convergence invariant end to end through the public API: every
// accepted game iteration raises Φ, no iteration ever lowers it, and the
// stream's final Φ equals the Report's.
func TestTraceMonotonePhi(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		t.Run(d.String(), func(t *testing.T) {
			p := DefaultParams(d)
			p.NumTasks, p.NumWorkers, p.NumCenters = 300, 80, 10

			var buf bytes.Buffer
			raw, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			in, err := Partition(raw)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(in, SeqBDC, WithTrace(&buf))
			if err != nil {
				t.Fatal(err)
			}
			events := parseTrace(t, &buf)
			if len(events) == 0 {
				t.Fatal("WithTrace produced no events")
			}

			// Stream integrity: seq is 1..N, t_ms non-decreasing.
			lastT := -1.0
			for i, ev := range events {
				if ev.Seq != int64(i+1) {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
				if ev.TMs < lastT {
					t.Fatalf("t_ms went backwards at seq %d: %v after %v", ev.Seq, ev.TMs, lastT)
				}
				lastT = ev.TMs
			}

			// The pipeline events appear exactly once each, in order.
			order := []string{"run_start", "phase1", "phase2", "run_end"}
			pos := map[string]int{}
			for i, ev := range events {
				if _, dup := pos[ev.Event]; dup && ev.Event != "game_iter" && ev.Event != "phase1_center" {
					t.Fatalf("duplicate %q event", ev.Event)
				}
				if _, seen := pos[ev.Event]; !seen {
					pos[ev.Event] = i
				}
			}
			for i := 1; i < len(order); i++ {
				a, oka := pos[order[i-1]]
				b, okb := pos[order[i]]
				if !oka || !okb {
					t.Fatalf("missing pipeline event %q or %q (have %v)", order[i-1], order[i], pos)
				}
				if a >= b {
					t.Fatalf("%q (seq %d) not before %q (seq %d)", order[i-1], a+1, order[i], b+1)
				}
			}
			for _, name := range []string{"phase1", "phase2", "run_end"} {
				if ms := field[float64](t, events[pos[name]], "duration_ms"); ms < 0 {
					t.Fatalf("%s duration_ms negative: %v", name, ms)
				}
			}
			if m := field[string](t, events[pos["run_start"]], "method"); m != "Seq-BDC" {
				t.Fatalf("run_start method = %q", m)
			}

			// One phase1_center event per center, ρ matching Phase1Ratios.
			var centers int
			for _, ev := range events {
				if ev.Event != "phase1_center" {
					continue
				}
				ci := field[int](t, ev, "center")
				rho := field[float64](t, ev, "rho")
				if got := rep.Phase1Ratios[ci]; got != rho {
					t.Fatalf("center %d trace rho %v, report %v", ci, rho, got)
				}
				centers++
			}
			if centers != p.NumCenters {
				t.Fatalf("%d phase1_center events for %d centers", centers, p.NumCenters)
			}

			// Convergence: Φ starts at the phase-1 potential and never
			// decreases; accepted iterations strictly increase it.
			phi := Phi(rep.Phase1Ratios)
			iters := 0
			for _, ev := range events {
				if ev.Event != "game_iter" {
					continue
				}
				iters++
				next := field[float64](t, ev, "phi")
				accepted := field[bool](t, ev, "accepted")
				if next < phi {
					t.Fatalf("iteration %d decreased phi: %v -> %v", iters, phi, next)
				}
				if accepted && !(next > phi) {
					t.Fatalf("accepted iteration %d did not raise phi: %v -> %v", iters, phi, next)
				}
				rhos := field[[]float64](t, ev, "rhos")
				if len(rhos) != p.NumCenters {
					t.Fatalf("iteration %d carries %d ratios for %d centers", iters, len(rhos), p.NumCenters)
				}
				if got := Phi(rhos); got != next {
					t.Fatalf("iteration %d phi field %v disagrees with its rhos (%v)", iters, next, got)
				}
				phi = next
			}
			if iters != rep.Iterations {
				t.Fatalf("trace has %d game_iter events, report %d iterations", iters, rep.Iterations)
			}
			if iters == 0 {
				t.Fatal("instance converged without a single game iteration; no convergence to observe")
			}
			if want := Phi(rep.Ratios); phi != want {
				t.Fatalf("final trace phi %v, report phi %v", phi, want)
			}
		})
	}
}

// TestTraceMatchesReportTrace cross-checks the two telemetry surfaces
// against each other: the JSONL game_iter stream and Report.Trace must tell
// the same story step for step, unsharded and under WithShards, where the
// games run concurrently and the final trace is renumbered. The stream,
// wall-clock fields aside, is the same at GOMAXPROCS 1 and 4.
func TestTraceMatchesReportTrace(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		tasks, workers, centers int
		opts                    []RunOption
	}{
		{"unsharded", 200, 60, 8, nil},
		{"shards=4", 2000, 500, 40, []RunOption{WithShards(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams(SYN)
			p.NumTasks, p.NumWorkers, p.NumCenters = tc.tasks, tc.workers, tc.centers
			var streams [][]map[string]json.RawMessage
			for _, procs := range []int{1, 4} {
				var buf bytes.Buffer
				prev := runtime.GOMAXPROCS(procs)
				rep, err := Solve(p, SeqBDC, append(tc.opts, WithTrace(&buf))...)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if len(tc.opts) > 0 && (rep.Shard == nil || rep.Shard.Shards < 2) {
					t.Fatalf("GOMAXPROCS %d: run not sharded: %+v", procs, rep.Shard)
				}
				events := parseTrace(t, &buf)
				checkGameIters(t, events, rep.Trace)
				var stream []map[string]json.RawMessage
				for _, ev := range events {
					delete(ev.Raw, "t_ms")
					delete(ev.Raw, "duration_ms")
					stream = append(stream, ev.Raw)
				}
				streams = append(streams, stream)
			}
			if !reflect.DeepEqual(streams[0], streams[1]) {
				t.Fatal("event stream differs between GOMAXPROCS 1 and 4")
			}
		})
	}
}

// checkGameIters asserts that the i-th game_iter event is step i+1 of the
// trace and carries that step's fields.
func checkGameIters(t *testing.T, events []traceEvent, trace []TraceStep) {
	t.Helper()
	var steps []traceEvent
	for _, ev := range events {
		if ev.Event == "game_iter" {
			steps = append(steps, ev)
		}
	}
	if len(steps) != len(trace) || len(steps) == 0 {
		t.Fatalf("%d game_iter events vs %d trace steps", len(steps), len(trace))
	}
	for i, ev := range steps {
		ts := trace[i]
		if got := field[int](t, ev, "iter"); got != i+1 || got != ts.Iteration {
			t.Errorf("step %d: iter %d, trace %d", i, got, ts.Iteration)
		}
		if got := field[int](t, ev, "recipient"); got != int(ts.Recipient) {
			t.Errorf("step %d: recipient %d vs %d", i, got, ts.Recipient)
		}
		if got := field[bool](t, ev, "accepted"); got != ts.Accepted {
			t.Errorf("step %d: accepted %v vs %v", i, got, ts.Accepted)
		}
		if got := field[float64](t, ev, "phi"); got != ts.Phi {
			t.Errorf("step %d: phi %v vs %v", i, got, ts.Phi)
		}
		if got := field[int](t, ev, "assigned"); got != ts.Assigned {
			t.Errorf("step %d: assigned %d vs %d", i, got, ts.Assigned)
		}
		if got := field[float64](t, ev, "unfairness"); got != ts.Unfairness {
			t.Errorf("step %d: unfairness %v vs %v", i, got, ts.Unfairness)
		}
	}
}

// TestWriteMetrics smoke-checks the Prometheus snapshot after a run: the
// pipeline counters must be present and the exposition format well-formed
// (every non-comment line is "name[{labels}] value").
func TestWriteMetrics(t *testing.T) {
	if _, err := Solve(DefaultParams(SYN), SeqBDC); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"imtao_runs_total",
		"imtao_partitions_total",
		"imtao_assign_calls_total",
		"imtao_collab_iterations_total",
		"imtao_env_info",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics snapshot lacks %s", name)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if n := len(strings.Fields(line)); n != 2 {
			t.Errorf("malformed exposition line %q (%d fields)", line, n)
		}
	}
}

// ExampleWithTrace shows the one-liner for capturing a convergence trace.
func ExampleWithTrace() {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers = 100, 30
	var trace bytes.Buffer
	rep, _ := Solve(p, SeqBDC, WithTrace(&trace))
	fmt.Println(rep.Iterations == strings.Count(trace.String(), `"event":"game_iter"`))
	// Output: true
}

// TestTraceSeqUnderParallelism runs a traced solve at GOMAXPROCS 4, where
// phase 1 fans its centers out over goroutines, and checks the stream: every
// line is valid standalone JSON and seq is exactly 1..N with no gap,
// duplicate, or reordering. The run emits every event from the solving
// goroutine (phase1_center after the fan-out, game_iter per step); the
// encoder's own serialization under concurrent emitters is
// TestFlightRecorderConcurrent's, which CI runs under -race.
func TestTraceSeqUnderParallelism(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 300, 80, 10
	var buf bytes.Buffer
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if _, err := Solve(p, SeqBDC, WithTrace(&buf)); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, &buf)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i, ev := range events {
		if want := int64(i + 1); ev.Seq != want {
			t.Fatalf("line %d: seq %d, want %d (gap, duplicate, or reorder)", i, ev.Seq, want)
		}
	}
	var sawCenter, sawIter bool
	for _, ev := range events {
		switch ev.Event {
		case "phase1_center":
			sawCenter = true
		case "game_iter":
			sawIter = true
		}
	}
	if !sawCenter || !sawIter {
		t.Errorf("stream lacks an emitter: phase1_center=%v game_iter=%v",
			sawCenter, sawIter)
	}
}

// TestWithTracerTimeline records a parallel run through the public tracing
// API and checks the span tree and its Chrome export: the hierarchy
// run → phase1 → phase1_center and run → phase2 → game_iter → trial must be
// present, with one trial span per evaluated candidate and a replay span
// under the iterations for each suffix replay, and WriteChromeTrace must
// emit valid JSON carrying every span.
func TestWithTracerTimeline(t *testing.T) {
	p := DefaultParams(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 300, 80, 10
	tr := NewTracer(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rep, err := Solve(p, SeqBDC, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if tr.Dropped() != 0 {
		t.Fatalf("%d spans dropped at default capacity", tr.Dropped())
	}
	names := make(map[SpanID]string, len(spans))
	parents := make(map[SpanID]SpanID, len(spans))
	counts := make(map[string]int)
	for _, s := range spans {
		names[s.ID] = s.Name
		parents[s.ID] = s.Parent
		counts[s.Name]++
	}
	chains := make(map[string]bool)
	for id := range names {
		var path []string
		for cur := id; cur != 0; cur = parents[cur] {
			path = append([]string{names[cur]}, path...)
		}
		chains[strings.Join(path, "→")] = true
	}
	for _, want := range []string{
		"run→phase1→phase1_center",
		"run→phase2→game_iter→trial",
	} {
		if !chains[want] {
			t.Errorf("span tree lacks %s; chains: %v", want, chains)
		}
	}
	if counts["phase1_center"] != p.NumCenters {
		t.Errorf("%d phase1_center spans, want %d", counts["phase1_center"], p.NumCenters)
	}
	if counts["game_iter"] != rep.Iterations {
		t.Errorf("%d game_iter spans vs %d report iterations", counts["game_iter"], rep.Iterations)
	}
	trials, replays := 0, 0
	for _, st := range rep.Trace {
		trials += st.Trials
		replays += st.Replays
	}
	if counts["trial"] != trials {
		t.Errorf("%d trial spans for %d evaluated candidates", counts["trial"], trials)
	}
	if replays == 0 || counts["replay"] < replays || !chains["run→phase2→game_iter→replay"] {
		t.Errorf("%d replay spans for %d suffix replays; chains: %v", counts["replay"], replays, chains)
	}

	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is invalid JSON: %v", err)
	}
	var xEvents int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			xEvents++
		}
	}
	if xEvents != len(spans) {
		t.Errorf("export carries %d X events for %d spans", xEvents, len(spans))
	}
}
