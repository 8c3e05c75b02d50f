package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imtao/internal/perfgate"
)

const repoRules = "../../perfgate.rules.json"

var committed = []string{"../../BENCH_shard.json"}

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

// TestGateCatchesDoctoredBench doctors a copy of the committed shard bench —
// a 10x phase-2 slowdown of the 100k engine run and a lost equilibrium — and
// requires a nonzero exit naming both regressions.
func TestGateCatchesDoctoredBench(t *testing.T) {
	var doc map[string]any
	readJSON(t, "../../BENCH_shard.json", &doc)
	var doctoredPreset bool
	for _, p := range doc["presets"].([]any) {
		if p := p.(map[string]any); p["name"] == "100k-s1" {
			p["phase2_ms"] = p["phase2_ms"].(float64) * 10
			p["equilibrium_ok"] = false
			doctoredPreset = true
		}
	}
	if !doctoredPreset {
		t.Fatal("committed shard bench has no 100k-s1 preset")
	}

	doctored := writeJSON(t, "BENCH_shard_doctored.json", doc)

	var out, errb bytes.Buffer
	code := run([]string{"-rules", repoRules, "../../BENCH_shard.json=" + doctored}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"phase2_ms", "equilibrium_ok", "REGRESSION"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report does not name %q:\n%s", want, out.String())
		}
	}
}

// TestGatePartialFresh gates a fresh artifact holding only the first preset
// (10k-s1) against the full committed baseline: the other presets' metrics
// are skipped, the 10k-s1 slice still gates.
func TestGatePartialFresh(t *testing.T) {
	var doc map[string]any
	readJSON(t, "../../BENCH_shard.json", &doc)
	doc["presets"] = doc["presets"].([]any)[:1]
	partial := writeJSON(t, "BENCH_shard_10k_s1.json", doc)

	var out, errb bytes.Buffer
	if code := run([]string{"-rules", repoRules, "../../BENCH_shard.json=" + partial}, &out, &errb); code != 0 {
		t.Fatalf("partial fresh must pass, exit %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
}

// TestGateRejectsMixedPair pairs the committed shard bench with a copy that
// names another benchmark. (ci/shard_multicore_baseline.json is a
// "shard-engine" record too, so it cannot serve as the other side.)
func TestGateRejectsMixedPair(t *testing.T) {
	var doc map[string]any
	readJSON(t, "../../BENCH_shard.json", &doc)
	doc["benchmark"] = "other-bench"
	other := writeJSON(t, "BENCH_other.json", doc)

	var out, errb bytes.Buffer
	code := run([]string{"-rules", repoRules, "../../BENCH_shard.json=" + other}, &out, &errb)
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

// TestNoDeadRules: every rule is the first match of some path of the
// committed records it gates. The gate compares only the paths both
// documents hold, so a rule whose field was renamed or moved would gate
// nothing and pass. A rules file with one extra, unmatched rule must be
// caught.
func TestNoDeadRules(t *testing.T) {
	for _, tc := range []struct {
		rules   string
		records []string
	}{
		{repoRules, committed},
		{"../../ci/perfgate.multicore.rules.json", []string{"../../ci/shard_multicore_baseline.json"}},
	} {
		if dead := deadRules(t, tc.rules, tc.records); len(dead) > 0 {
			t.Errorf("%s: rules matching no path of %v: %v", tc.rules, tc.records, dead)
		}
	}

	var doc map[string][]map[string]any
	readJSON(t, repoRules, &doc)
	doc["rules"] = append(doc["rules"], map[string]any{"match": "presets.*.no_such_field", "direction": "equal"})
	extra := writeJSON(t, "rules.json", doc)
	if dead := deadRules(t, extra, committed); len(dead) != 1 || dead[0] != "presets.*.no_such_field" {
		t.Errorf("unmatched rule not reported: dead = %v", dead)
	}
}

// deadRules returns the match patterns of the rules in rulesPath that gate
// no path of any of the records, each diffed against itself.
func deadRules(t *testing.T, rulesPath string, records []string) []string {
	t.Helper()
	f, err := os.Open(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rules, err := perfgate.LoadRules(f)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for _, p := range records {
		doc, err := loadFlat(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range perfgate.Compare(doc, doc, rules).Findings {
			live[fd.Rule] = true
		}
	}
	var dead []string
	for _, r := range rules {
		if !live[r.Match] {
			dead = append(dead, r.Match)
		}
	}
	return dead
}

// readJSON decodes the JSON file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

// writeJSON encodes v into a file called name in a fresh temporary
// directory and returns its path.
func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
