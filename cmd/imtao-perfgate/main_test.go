package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const repoRules = "../../perfgate.rules.json"

var committed = []string{
	"../../BENCH_oracle.json",
	"../../BENCH_game.json",
	"../../BENCH_shard.json",
}

// TestGatePassesOnCommittedBaselines is the self-consistency acceptance
// check: every committed artifact diffed against itself under the repo
// rules must pass, and must actually gate something.
func TestGatePassesOnCommittedBaselines(t *testing.T) {
	args := []string{"-rules", repoRules, "-v"}
	for _, p := range committed {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("committed baseline missing: %v", err)
		}
		args = append(args, p+"="+p)
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("no PASS line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "perfgate: 0 gated") {
		t.Errorf("a pair gated nothing:\n%s", out.String())
	}
}

// TestGateCatchesDoctoredBench doctors a copy of the committed game bench —
// a 10x phase-2 slowdown and a lost equilibrium — and requires a nonzero
// exit naming both regressions.
func TestGateCatchesDoctoredBench(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_game.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	presets := doc["presets"].([]any)
	p0 := presets[0].(map[string]any)
	p0["phase2_ms"] = p0["phase2_ms"].(float64) * 10
	p0["equilibrium_ok"] = false

	doctored := filepath.Join(t.TempDir(), "BENCH_game_doctored.json")
	enc, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, enc, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{"-rules", repoRules, "../../BENCH_game.json=" + doctored}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"phase2_ms", "equilibrium_ok", "REGRESSION"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report does not name %q:\n%s", want, out.String())
		}
	}
}

// TestGatePartialFresh gates a fresh artifact holding only the 10k preset
// against the full committed baseline: the 50k/100k metrics are skipped,
// the 10k slice still gates.
func TestGatePartialFresh(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_game.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["presets"] = doc["presets"].([]any)[:1]
	partial := filepath.Join(t.TempDir(), "BENCH_game_10k.json")
	enc, _ := json.Marshal(doc)
	if err := os.WriteFile(partial, enc, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-rules", repoRules, "../../BENCH_game.json=" + partial}, &out, &errb); code != 0 {
		t.Fatalf("partial fresh must pass, exit %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
}

func TestGateRejectsMixedPair(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-rules", repoRules, "../../BENCH_game.json=../../BENCH_oracle.json"},
		&out, &errb)
	if code != 2 {
		t.Fatalf("mixed benchmarks must be a usage error, exit %d\n%s", code, errb.String())
	}
}

func TestGateUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no pairs: exit %d, want 2", code)
	}
	if code := run([]string{"-rules", repoRules, "notapair"}, &out, &errb); code != 2 {
		t.Errorf("malformed pair: exit %d, want 2", code)
	}
	if code := run([]string{"-rules", "/nonexistent.json", "a=b"}, &out, &errb); code != 2 {
		t.Errorf("missing rules: exit %d, want 2", code)
	}
}
