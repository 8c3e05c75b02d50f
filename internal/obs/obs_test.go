package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrent hammers every metric type from many goroutines;
// run with -race this doubles as the data-race check.
func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	g := r.Gauge("g", "gauge")
	q := r.Quantile("q_seconds", "quantile")

	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				c.Inc()
				c.Add(2)
				g.Set(float64(k))
				q.Observe(float64(k % 200))
			}
		}()
	}
	wg.Wait()

	if got, want := c.Value(), int64(goroutines*per*3); got != want {
		t.Errorf("counter %d, want %d", got, want)
	}
	// Every goroutine's last store is per-1, so the last store of all is.
	if got, want := g.Value(), float64(per-1); got != want {
		t.Errorf("gauge %g, want %g", got, want)
	}
	if got, want := q.Count(), int64(goroutines*per); got != want {
		t.Errorf("quantile count %d, want %d", got, want)
	}
	// Σ (k%200) for k in [0,1000) = 5 full cycles of 0..199.
	wantSum := float64(goroutines) * 5 * (199 * 200 / 2)
	if got := q.Sum(); got != wantSum {
		t.Errorf("quantile sum %g, want %g", got, wantSum)
	}
	if q.Min() != 0 || q.Max() != 199 {
		t.Errorf("quantile min/max %g/%g, want 0/199", q.Min(), q.Max())
	}
}

func TestRegistryIdempotentAndKindClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second registration is the same counter")
	if a != b {
		t.Error("same name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "kind clash")
}

// TestJSONLGolden pins the encoder's exact output with a frozen clock.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	base := time.Unix(1000, 0)
	now := base
	j.SetClock(func() time.Time { return now })

	j.Event("run_start", F("method", "Seq-BDC"), F("centers", 20), F("parallel", true))
	now = base.Add(1500 * time.Microsecond)
	j.Event("game_iter", F("iter", 1), F("phi", 17.25), F("rhos", []float64{0.5, 1}))
	j.Record("prov_rec", struct {
		Center int     `json:"center"`
		Left   []int   `json:"left"`
		Rho    float64 `json:"rho"`
		Arena  int     `json:"-"`
	}{Center: 3, Rho: 0.5, Arena: 9})
	j.Record("prov_empty", struct{}{})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	want := `{"seq":1,"t_ms":0.000,"schema_version":2,"event":"run_start","method":"Seq-BDC","centers":20,"parallel":true}
{"seq":2,"t_ms":1.500,"schema_version":2,"event":"game_iter","iter":1,"phi":17.25,"rhos":[0.5,1]}
{"seq":3,"t_ms":1.500,"schema_version":2,"event":"prov_rec","center":3,"left":null,"rho":0.5}
{"seq":4,"t_ms":1.500,"schema_version":2,"event":"prov_empty"}
`
	if buf.String() != want {
		t.Errorf("jsonl mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestJSONLRecordLatchesMarshalError: a record that does not marshal writes
// no line, and Err reports it; later events are dropped as after a write
// error.
func TestJSONLRecordLatchesMarshalError(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record("prov_bad", struct {
		Rho float64 `json:"rho"`
	}{math.NaN()})
	j.Event("after")
	if j.Err() == nil || buf.Len() != 0 {
		t.Fatalf("Err = %v, wrote %q; want the marshal error and no line", j.Err(), buf.String())
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				j.Event("tick", F("k", k))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*per {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*per)
	}
	seen := make(map[int64]bool)
	for _, line := range lines {
		var ev struct {
			Seq   int64  `json:"seq"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if ev.Event != "tick" || seen[ev.Seq] {
			t.Fatalf("bad or duplicate event %+v", ev)
		}
		seen[ev.Seq] = true
	}
}

// TestVCSRevision: a build of an uncommitted tree is stamped "+dirty",
// a clean one with the revision alone, and a build without VCS info with
// nothing.
func TestVCSRevision(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "69f8f55"}
	for _, tc := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{[]debug.BuildSetting{rev, {Key: "vcs.modified", Value: "true"}}, "69f8f55+dirty"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "false"}, rev}, "69f8f55"},
		{[]debug.BuildSetting{rev}, "69f8f55"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{nil, ""},
	} {
		if got := vcsRevision(tc.settings); got != tc.want {
			t.Errorf("vcsRevision(%v) = %q, want %q", tc.settings, got, tc.want)
		}
	}
}

func TestEnvMeta(t *testing.T) {
	meta := EnvMeta()
	for _, key := range []string{"go_version", "gomaxprocs", "num_cpu", "goos", "goarch"} {
		if meta[key] == "" {
			t.Errorf("EnvMeta missing %q", key)
		}
	}
	r := NewRegistry()
	RecordEnvInfo(r)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "imtao_env_info{") {
		t.Errorf("env info metric missing:\n%s", buf.String())
	}
}

// TestSchemaVersionStampedAndChecked: every emitted record carries the
// current schema_version, and CheckSchemaVersion rejects any other stream.
func TestSchemaVersionStampedAndChecked(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event("probe", F("k", 1))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	v, ok := rec["schema_version"].(float64)
	if !ok {
		t.Fatalf("record missing schema_version: %s", buf.String())
	}
	if int(v) != SchemaVersion {
		t.Fatalf("record schema_version %v, build %d", v, SchemaVersion)
	}
	if err := CheckSchemaVersion(SchemaVersion); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	for _, bad := range []int{0, 1, SchemaVersion + 1} {
		if err := CheckSchemaVersion(bad); err == nil {
			t.Fatalf("version %d accepted by a version-%d reader", bad, SchemaVersion)
		}
	}
}
