package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeVitals is one snapshot of the Go runtime's health signals, read
// from runtime/metrics: scheduler pressure (goroutines, run-queue latency),
// memory pressure (live heap, GC goal, total mapped), and GC stop-the-world
// cost. Pause and latency quantiles are computed over the runtime's
// cumulative histograms, so they describe the whole process lifetime — the
// right view for "is this service healthy", with RuntimeHistogram.Sub
// available when a harness wants the distribution of one bounded window.
type RuntimeVitals struct {
	Goroutines      int64
	GoMaxProcs      int64
	HeapLiveBytes   int64 // /gc/heap/live — bytes of live objects after the last GC
	HeapGoalBytes   int64 // /gc/heap/goal — the pacer's current target
	MemTotalBytes   int64 // /memory/classes/total — all memory mapped by the runtime
	GCCycles        int64
	CgoCalls        int64
	GCPauseP50      float64 // seconds, /sched/pauses/total/gc
	GCPauseP99      float64
	SchedLatencyP50 float64 // seconds, /sched/latencies (run-queue wait)
	SchedLatencyP99 float64
}

// runtimeSampleNames are the runtime/metrics samples one vitals read takes.
// Reading them in one metrics.Read call gives a mutually consistent batch.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/sched/gomaxprocs:threads",
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cgo/go-to-c-calls:calls",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// RuntimeHistogram is a copy of a runtime/metrics Float64Histogram —
// bucket boundaries plus counts — that supports windowed differencing and
// quantile reads. The runtime's histograms are cumulative since process
// start; Sub turns two snapshots into the distribution of the interval.
type RuntimeHistogram struct {
	Buckets []float64 // boundaries, len(Counts)+1, may start/end at ±Inf
	Counts  []uint64
}

func copyRuntimeHistogram(h *metrics.Float64Histogram) RuntimeHistogram {
	if h == nil {
		return RuntimeHistogram{}
	}
	return RuntimeHistogram{
		Buckets: append([]float64(nil), h.Buckets...),
		Counts:  append([]uint64(nil), h.Counts...),
	}
}

// Sub returns the histogram of the window between prev and h (h - prev).
// Mismatched shapes (a runtime version change mid-process cannot happen;
// an empty prev is the common "since start" case) return h unchanged.
func (h RuntimeHistogram) Sub(prev RuntimeHistogram) RuntimeHistogram {
	if len(prev.Counts) != len(h.Counts) {
		return h
	}
	out := RuntimeHistogram{
		Buckets: h.Buckets,
		Counts:  make([]uint64, len(h.Counts)),
	}
	for i := range h.Counts {
		if h.Counts[i] >= prev.Counts[i] {
			out.Counts[i] = h.Counts[i] - prev.Counts[i]
		}
	}
	return out
}

// Count returns the total number of observations in the histogram.
func (h RuntimeHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the p-quantile by nearest rank over the buckets,
// reporting a bucket's midpoint (or its finite edge at the ±Inf ends).
// Empty histograms return 0.
func (h RuntimeHistogram) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			default:
				return (lo + hi) / 2
			}
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// ReadRuntimeHistogram reads one cumulative Float64Histogram metric by its
// runtime/metrics name ("/sched/pauses/total/gc:seconds",
// "/sched/latencies:seconds"). ok is false when the metric is unsupported
// or not a histogram.
func ReadRuntimeHistogram(name string) (RuntimeHistogram, bool) {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return RuntimeHistogram{}, false
	}
	return copyRuntimeHistogram(s[0].Value.Float64Histogram()), true
}

// RuntimeSampler periodically reads RuntimeVitals and publishes them as
// gauges on a Registry (so /metrics always carries fresh runtime health) and
// as "runtime_sample" events on an optional Observer (so the JSONL stream
// and the flight-recorder ring interleave vitals with pipeline events — a
// GC pause spike lands next to the game iteration it stretched).
//
// The sampler's own cost is measured: every Sample's duration feeds the
// <prefix>_sample_seconds quantile, which the perf gate holds tight so the
// watcher can never silently become the workload.
type RuntimeSampler struct {
	interval time.Duration
	obs      Observer

	gGoroutines *Gauge
	gGomaxprocs *Gauge
	gHeapLive   *Gauge
	gHeapGoal   *Gauge
	gMemTotal   *Gauge
	gGCCycles   *Gauge
	gCgoCalls   *Gauge
	gPauseP50   *Gauge
	gPauseP99   *Gauge
	gSchedP50   *Gauge
	gSchedP99   *Gauge
	cSamples    *Counter
	qSampleCost *Quantile

	mu       sync.Mutex
	samples  []metrics.Sample // reused batch buffer, guarded by mu
	last     RuntimeVitals
	haveLast bool
	stop     chan struct{}
	done     chan struct{}
}

// DefaultSampleInterval is the RuntimeSampler period used when the caller
// passes a non-positive interval.
const DefaultSampleInterval = 2 * time.Second

// NewRuntimeSampler builds a sampler publishing on r (Default when nil)
// under the metric prefix "imtao_runtime". o, when enabled, additionally
// receives one "runtime_sample" event per sample; pass nil for none.
func NewRuntimeSampler(interval time.Duration, r *Registry, o Observer) *RuntimeSampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if r == nil {
		r = Default
	}
	s := &RuntimeSampler{
		interval: interval,
		obs:      o,
		gGoroutines: r.Gauge("imtao_runtime_goroutines",
			"live goroutines (/sched/goroutines)"),
		gGomaxprocs: r.Gauge("imtao_runtime_gomaxprocs_threads",
			"GOMAXPROCS (/sched/gomaxprocs)"),
		gHeapLive: r.Gauge("imtao_runtime_heap_live_bytes",
			"bytes of live heap objects after the last GC (/gc/heap/live)"),
		gHeapGoal: r.Gauge("imtao_runtime_heap_goal_bytes",
			"GC pacer heap goal (/gc/heap/goal)"),
		gMemTotal: r.Gauge("imtao_runtime_mem_total_bytes",
			"total memory mapped by the Go runtime (/memory/classes/total)"),
		gGCCycles: r.Gauge("imtao_runtime_gc_cycles_total",
			"completed GC cycles since process start (/gc/cycles/total)"),
		gCgoCalls: r.Gauge("imtao_runtime_cgo_calls_total",
			"cgo calls since process start (/cgo/go-to-c-calls)"),
		gPauseP50: r.Gauge("imtao_runtime_gc_pause_p50_seconds",
			"p50 GC stop-the-world pause since process start (/sched/pauses/total/gc)"),
		gPauseP99: r.Gauge("imtao_runtime_gc_pause_p99_seconds",
			"p99 GC stop-the-world pause since process start (/sched/pauses/total/gc)"),
		gSchedP50: r.Gauge("imtao_runtime_sched_latency_p50_seconds",
			"p50 goroutine run-queue wait since process start (/sched/latencies)"),
		gSchedP99: r.Gauge("imtao_runtime_sched_latency_p99_seconds",
			"p99 goroutine run-queue wait since process start (/sched/latencies)"),
		cSamples: r.Counter("imtao_runtime_samples_total",
			"runtime vitals samples taken"),
		qSampleCost: r.Quantile("imtao_runtime_sample_seconds",
			"cost of one runtime vitals sample (read + publish)"),
	}
	s.samples = make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		s.samples[i].Name = name
	}
	return s
}

// Sample takes one vitals snapshot now: reads the runtime metrics batch,
// updates the gauges, emits the observer event, and returns the vitals.
// Safe for concurrent use with a running sampler.
func (s *RuntimeSampler) Sample() RuntimeVitals {
	t0 := time.Now()
	s.mu.Lock()
	metrics.Read(s.samples)
	var v RuntimeVitals
	for i := range s.samples {
		val := &s.samples[i].Value
		switch s.samples[i].Name {
		case "/sched/goroutines:goroutines":
			v.Goroutines = asInt64(val)
		case "/sched/gomaxprocs:threads":
			v.GoMaxProcs = asInt64(val)
		case "/gc/heap/live:bytes":
			v.HeapLiveBytes = asInt64(val)
		case "/gc/heap/goal:bytes":
			v.HeapGoalBytes = asInt64(val)
		case "/memory/classes/total:bytes":
			v.MemTotalBytes = asInt64(val)
		case "/gc/cycles/total:gc-cycles":
			v.GCCycles = asInt64(val)
		case "/cgo/go-to-c-calls:calls":
			v.CgoCalls = asInt64(val)
		case "/sched/pauses/total/gc:seconds":
			if val.Kind() == metrics.KindFloat64Histogram {
				h := copyRuntimeHistogram(val.Float64Histogram())
				v.GCPauseP50 = h.Quantile(0.5)
				v.GCPauseP99 = h.Quantile(0.99)
			}
		case "/sched/latencies:seconds":
			if val.Kind() == metrics.KindFloat64Histogram {
				h := copyRuntimeHistogram(val.Float64Histogram())
				v.SchedLatencyP50 = h.Quantile(0.5)
				v.SchedLatencyP99 = h.Quantile(0.99)
			}
		}
	}
	s.last = v
	s.haveLast = true
	s.mu.Unlock()

	s.gGoroutines.Set(float64(v.Goroutines))
	s.gGomaxprocs.Set(float64(v.GoMaxProcs))
	s.gHeapLive.Set(float64(v.HeapLiveBytes))
	s.gHeapGoal.Set(float64(v.HeapGoalBytes))
	s.gMemTotal.Set(float64(v.MemTotalBytes))
	s.gGCCycles.Set(float64(v.GCCycles))
	s.gCgoCalls.Set(float64(v.CgoCalls))
	s.gPauseP50.Set(v.GCPauseP50)
	s.gPauseP99.Set(v.GCPauseP99)
	s.gSchedP50.Set(v.SchedLatencyP50)
	s.gSchedP99.Set(v.SchedLatencyP99)
	s.cSamples.Inc()

	if Enabled(s.obs) {
		s.obs.Event("runtime_sample",
			F("goroutines", v.Goroutines),
			F("heap_live_bytes", v.HeapLiveBytes),
			F("heap_goal_bytes", v.HeapGoalBytes),
			F("mem_total_bytes", v.MemTotalBytes),
			F("gc_cycles", v.GCCycles),
			F("gc_pause_p50_ms", v.GCPauseP50*1e3),
			F("gc_pause_p99_ms", v.GCPauseP99*1e3),
			F("sched_latency_p50_ms", v.SchedLatencyP50*1e3),
			F("sched_latency_p99_ms", v.SchedLatencyP99*1e3))
	}
	s.qSampleCost.ObserveDuration(time.Since(t0))
	return v
}

// asInt64 converts a runtime/metrics value to int64, tolerating both
// KindUint64 and KindFloat64 so a future kind change degrades gracefully.
func asInt64(v *metrics.Value) int64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return int64(v.Uint64())
	case metrics.KindFloat64:
		return int64(v.Float64())
	default:
		return 0
	}
}

// Last returns the most recent vitals and whether any sample was taken yet.
func (s *RuntimeSampler) Last() (RuntimeVitals, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.haveLast
}

// Samples returns the number of samples taken so far.
func (s *RuntimeSampler) Samples() int64 { return s.cSamples.Value() }

// SampleCost returns a snapshot of the sampler's own per-sample cost.
func (s *RuntimeSampler) SampleCost() QuantileSnapshot { return s.qSampleCost.Snapshot() }

// Running reports whether the background sampling goroutine is active.
func (s *RuntimeSampler) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop != nil
}

// Start takes an immediate sample and then samples every interval on a
// background goroutine until Stop. Starting a running sampler is a no-op.
func (s *RuntimeSampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()

	s.Sample()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Sample()
			}
		}
	}()
}

// Stop halts background sampling and waits for the goroutine to exit: after
// Stop returns, no further sample is taken or event emitted. Idempotent;
// safe to call on a never-started sampler. The sampler can be restarted.
func (s *RuntimeSampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
