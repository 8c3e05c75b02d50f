package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

const sampleExposition = `# HELP imtao_runs_total pipeline runs
# TYPE imtao_runs_total counter
imtao_runs_total 3
# TYPE imtao_game_phi gauge
imtao_game_phi 17.25
# TYPE imtao_collab_iter_seconds summary
imtao_collab_iter_seconds{quantile="0.5"} 0.0012
imtao_collab_iter_seconds{quantile="0.99"} 0.0047
imtao_collab_iter_seconds{quantile="0.999"} NaN
imtao_collab_iter_seconds_sum 1.5
imtao_collab_iter_seconds_count 1200
imtao_runtime_heap_live_bytes 1.2582912e+07
imtao_collab_trials_total 420
# TYPE imtao_shard_iter_seconds summary
imtao_shard_iter_seconds{quantile="0.5"} 0.0014
imtao_shard_iter_seconds{quantile="0.99"} 0.0031
imtao_shard_skew 1.8
imtao_shard_load_skew 1.3
imtao_shard_autotune_shards 8
imtao_shard_games_total 8
imtao_shard_exchange_iterations_total 95
`

// TestParseMetrics covers the exposition shapes the dashboard must survive:
// labelled summary lines, scientific notation, NaN, comments, and junk.
func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(sampleExposition + "garbage line\nalso-bad\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["imtao_runs_total"] != 3 {
		t.Errorf("runs_total = %g", m["imtao_runs_total"])
	}
	if m[quantileKey("imtao_collab_iter_seconds", "0.99")] != 0.0047 {
		t.Errorf("iter p99 = %g", m[quantileKey("imtao_collab_iter_seconds", "0.99")])
	}
	if !math.IsNaN(m[quantileKey("imtao_collab_iter_seconds", "0.999")]) {
		t.Error("NaN summary line must parse as NaN")
	}
	if m["imtao_runtime_heap_live_bytes"] != 1.2582912e7 {
		t.Errorf("scientific notation: %g", m["imtao_runtime_heap_live_bytes"])
	}
	if _, err := parseMetrics(strings.NewReader("# only comments\n")); err == nil {
		t.Error("empty exposition should error")
	}
}

// TestMetricsURL pins the -addr normalisation.
func TestMetricsURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8080":                "http://127.0.0.1:8080/metrics",
		"http://127.0.0.1:8080":         "http://127.0.0.1:8080/metrics",
		"http://127.0.0.1:8080/":        "http://127.0.0.1:8080/metrics",
		"http://127.0.0.1:8080/metrics": "http://127.0.0.1:8080/metrics",
		"https://sim.example.com:443":   "https://sim.example.com:443/metrics",
	}
	for in, want := range cases {
		if got := metricsURL(in); got != want {
			t.Errorf("metricsURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDashboardPollRender runs the full scrape → history → render path
// against a live test server, twice, and checks the view carries the
// headline rows, sparklines, and counter rates.
func TestDashboardPollRender(t *testing.T) {
	trials := 420.0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := strings.Replace(sampleExposition, "imtao_collab_trials_total 420",
			"imtao_collab_trials_total "+strconv.FormatFloat(trials, 'f', -1, 64), 1)
		w.Write([]byte(body))
		trials += 100
	}))
	defer srv.Close()

	d := newDashboard(metricsURL(srv.URL), 16)
	for i := 0; i < 2; i++ {
		if err := d.poll(); err != nil {
			t.Fatal(err)
		}
	}
	out := d.render(false)
	for _, want := range []string{
		"Φ potential", "17.25",
		"iter p50", "1.20ms",
		"iter p99", "4.70ms",
		"shard iter p99", "3.10ms",
		"shard skew", "1.800",
		"shard load skew", "1.300",
		"autotuned shards",
		"exchange iters", "95",
		"heap live", "12.0MiB",
		"trials",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard lacks %q:\n%s", want, out)
		}
	}
	// Two polls of a moving counter yield a rate.
	if !strings.Contains(out, "/s)") {
		t.Errorf("dashboard lacks a counter rate:\n%s", out)
	}
	// History accumulated → the Φ row renders a sparkline glyph.
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("dashboard lacks sparklines:\n%s", out)
	}
	// Plain render must not carry screen-control sequences; live must.
	if strings.Contains(out, "\x1b[") {
		t.Error("plain render contains ANSI escapes")
	}
	if !strings.Contains(d.render(true), "\x1b[K") {
		t.Error("live render lacks erase-to-eol")
	}
	// Absent series render as a dash, not a crash.
	if !strings.Contains(out, "—") {
		t.Errorf("missing runtime series should render as —:\n%s", out)
	}
}
