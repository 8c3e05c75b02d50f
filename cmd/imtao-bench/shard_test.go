package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/roadnet"
	"imtao/internal/workload"
)

// TestShardSweepEngineRecord: the sweep passes its checks and writes the
// engine record on the one-shard point alone, whose ledger holds one record
// per iteration and per trial of the timed run and whose sampled point
// searches match full tables; no timed run builds a full table, and every
// point is compared with the one-shard point. The gate compares only the
// paths both records hold, so a point that lost these fields would pass
// it.
func TestShardSweepEngineRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.json")
	err := runShardSweep([]int{4000}, []int{1, 2}, shardConfig{
		dataset: workload.SYN, grid: 32, seed: 1, jsonPath: path})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Presets []map[string]any `json:"presets"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Presets) != 2 || rec.Presets[0]["name"] != "4k-s1" {
		t.Fatalf("presets = %v", rec.Presets)
	}
	fields := reflect.TypeOf(engineRecord{})
	for _, p := range rec.Presets {
		if p["full_searches"] != 0.0 {
			t.Errorf("%s: full_searches = %v, want 0", p["name"], p["full_searches"])
		}
		s1 := p["name"] == "4k-s1"
		for i := 0; i < fields.NumField(); i++ {
			key, _, _ := strings.Cut(fields.Field(i).Tag.Get("json"), ",")
			if _, ok := p[key]; ok != s1 {
				t.Errorf("%s: has %s = %v, want %v", p["name"], key, ok, s1)
			}
		}
		if _, ok := p["identical_to_s1"].(bool); !ok || p["speedup"] == nil {
			t.Errorf("%s: identical_to_s1 = %v, speedup = %v, want a comparison with 4k-s1",
				p["name"], p["identical_to_s1"], p["speedup"])
		}
	}
	s1 := rec.Presets[0]
	if s1["identical_to_s1"] != true {
		t.Errorf("4k-s1: identical_to_s1 = %v, want true", s1["identical_to_s1"])
	}
	if s1["exact_ok"] != true {
		t.Errorf("4k-s1: exact_ok = %v, want true", s1["exact_ok"])
	}
	if s1["prov_iter_records"] != s1["iterations"] || s1["prov_trial_records"] != s1["trials_evaluated"] {
		t.Errorf("ledger holds %v iterations / %v trials, the timed run %v / %v",
			s1["prov_iter_records"], s1["prov_trial_records"], s1["iterations"], s1["trials_evaluated"])
	}
}

// TestShardSweepWithoutOneShardPoint: a sweep that times no one-shard
// point has nothing to compare its points with, so it records neither
// identical_to_s1 nor speedup.
func TestShardSweepWithoutOneShardPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.json")
	err := runShardSweep([]int{4000}, []int{2}, shardConfig{
		dataset: workload.SYN, grid: 32, seed: 1, jsonPath: path})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Presets []map[string]any `json:"presets"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Presets) != 1 || rec.Presets[0]["name"] != "4k-s2" {
		t.Fatalf("presets = %v", rec.Presets)
	}
	for _, key := range []string{"identical_to_s1", "speedup"} {
		if v, ok := rec.Presets[0][key]; ok {
			t.Errorf("4k-s2 records %s = %v without a one-shard point", key, v)
		}
	}
}

// TestCheckPins: the scene check fails while one center's node lacks its
// pinned table, and passes once every distinct center node has one.
func TestCheckPins(t *testing.T) {
	net, err := roadnet.New(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 16, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	// The first two centers snap to the same node: three distinct nodes.
	locs := []geo.Point{geo.Pt(10, 10), geo.Pt(12, 11), geo.Pt(500, 500), geo.Pt(990, 20)}
	net.PrecomputeSources(locs[:3])
	if err := checkPins(net, locs); err == nil {
		t.Fatal("a scene missing the last center's pin passed")
	}
	net.PrecomputeSources(locs)
	if err := checkPins(net, locs); err != nil {
		t.Fatal(err)
	}
}
