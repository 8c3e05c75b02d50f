package obs

import (
	"bytes"
	"testing"
)

// TestCounterAddRejectsNegative pins the documented Add(n ≥ 0) contract:
// a negative delta would silently break monotonicity, so it panics instead.
func TestCounterAddRejectsNegative(t *testing.T) {
	var c Counter
	c.Add(0)
	c.Add(5)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("Counter.Add(-1) must panic")
		}
		if c.Value() != 5 {
			t.Errorf("failed Add mutated the counter: %d", c.Value())
		}
	}()
	c.Add(-1)
}

// TestExpositionGolden pins the full Prometheus text exposition of every
// metric kind — counter, gauge, summary (observed, and empty with its NaN
// quantiles) and info — so an exporter change cannot silently break
// scrapers.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("imtao_runs_total", "pipeline runs").Add(42)
	r.Gauge("imtao_pool_workers", "live goroutines").Set(3.25)
	q := r.Quantile("imtao_iter_seconds", "game iteration latency")
	for i := 0; i < 9; i++ {
		q.Observe(0.25)
	}
	q.Observe(2)
	r.Quantile("imtao_idle_seconds", "never observed")
	r.Info("imtao_env_info", "build environment",
		map[string]string{"goos": "linux", "go_version": "go1.24.0"})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP imtao_runs_total pipeline runs
# TYPE imtao_runs_total counter
imtao_runs_total 42
# HELP imtao_pool_workers live goroutines
# TYPE imtao_pool_workers gauge
imtao_pool_workers 3.25
# HELP imtao_iter_seconds game iteration latency
# TYPE imtao_iter_seconds summary
imtao_iter_seconds{quantile="0.5"} 0.25390625
imtao_iter_seconds{quantile="0.9"} 0.25390625
imtao_iter_seconds{quantile="0.99"} 2.03125
imtao_iter_seconds{quantile="0.999"} 2.03125
imtao_iter_seconds_sum 4.25
imtao_iter_seconds_count 10
# HELP imtao_idle_seconds never observed
# TYPE imtao_idle_seconds summary
imtao_idle_seconds{quantile="0.5"} NaN
imtao_idle_seconds{quantile="0.9"} NaN
imtao_idle_seconds{quantile="0.99"} NaN
imtao_idle_seconds{quantile="0.999"} NaN
imtao_idle_seconds_sum 0
imtao_idle_seconds_count 0
# HELP imtao_env_info build environment
# TYPE imtao_env_info gauge
imtao_env_info{go_version="go1.24.0",goos="linux"} 1
`
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}
