package stats

import (
	"math"
	"math/rand"
	"testing"

	"imtao/internal/obs"
)

// TestQuantileNearestRank pins the nearest-rank definition on hand-checked
// samples, including the edge ranks.
func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{30, 10, 20, 40, 50} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.1, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30},
		{0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); got != c.want {
			t.Errorf("Quantile(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 30 {
		t.Error("Quantile mutated its input")
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %g, want 0", got)
	}
}

// TestQuantileAgreesWithRecorder is the property test tying the two quantile
// implementations together: on identical samples, the exact nearest-rank
// value here and the log-bucketed obs.Quantile reconstruction must agree to
// within the recorder's documented relative-error bound. This is what lets
// a quantile computed exactly here and one scraped from /metrics (recorders)
// be compared directly.
func TestQuantileAgreesWithRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		xs := make([]float64, n)
		rec := obs.NewQuantile()
		for i := range xs {
			// Latency-shaped: log-uniform over 1µs … 1s.
			v := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-6
			xs[i] = v
			rec.Observe(v)
		}
		snap := rec.Snapshot()
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := Quantile(xs, p)
			approx := snap.Quantile(p)
			if rel := math.Abs(approx-exact) / exact; rel > 0.04 {
				t.Errorf("trial %d p%g: exact %.6g vs recorder %.6g (rel err %.3f)",
					trial, p*100, exact, approx, rel)
			}
		}
		if snap.Quantile(1) != Quantile(xs, 1) {
			t.Errorf("trial %d: recorder max %g != exact max %g",
				trial, snap.Quantile(1), Quantile(xs, 1))
		}
	}
}
