package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. n must be ≥ 0: counters are monotone, and a silent negative
// add would corrupt every rate() computed from the series downstream — so
// the contract is enforced with a panic, mirroring prometheus/client_golang.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add called with a negative delta; counters are monotone (use a Gauge)")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindInfo
	kindQuantile
)

type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	quant      *Quantile
	labels     string // pre-rendered {k="v",...} for info metrics
}

// Registry is an ordered collection of named metrics with a Prometheus
// text-format exporter. Registration is idempotent by name: asking twice for
// the same counter returns the same instance, so package-level vars and
// repeated calls cannot double-register.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Default is the process-wide registry every instrumented package registers
// on, mirroring the promauto idiom. The /metrics endpoint of cmd/imtao-sim
// and the -metrics-out flag of cmd/imtao-bench snapshot it.
var Default = NewRegistry()

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Quantile returns the quantile recorder registered under name, creating it
// if needed. It is exported as a Prometheus summary: one line per quantile in
// summaryQuantiles plus _sum and _count.
func (r *Registry) Quantile(name, help string) *Quantile {
	m := r.lookup(name, help, kindQuantile)
	if m.quant == nil {
		m.quant = NewQuantile()
	}
	return m.quant
}

// Info registers (or updates) a constant info metric: a gauge fixed at 1
// whose labels carry the payload, e.g.
//
//	imtao_env_info{go_version="go1.24.0",gomaxprocs="8"} 1
//
// Labels are rendered sorted by key for deterministic output.
func (r *Registry) Info(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + "=" + strconv.Quote(labels[k])
	}
	out += "}"
	m := r.lookup(name, help, kindInfo)
	r.mu.Lock()
	m.labels = out
	r.mu.Unlock()
}

// WriteTo writes a Prometheus text-format (version 0.0.4) snapshot of every
// registered metric, in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	cw := &countWriter{w: w}
	for _, m := range metrics {
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				m.name, m.help, m.name, m.name, m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
				m.name, m.help, m.name, m.name, formatFloat(m.gauge.Value()))
		case kindInfo:
			r.mu.Lock()
			labels := m.labels
			r.mu.Unlock()
			_, err = fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s%s 1\n",
				m.name, m.help, m.name, m.name, labels)
		case kindQuantile:
			q := m.quant
			if _, err = fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s summary\n",
				m.name, m.help, m.name); err != nil {
				break
			}
			snap := q.Snapshot()
			for _, p := range summaryQuantiles {
				v := math.NaN() // the Prometheus "no samples yet" convention
				if snap.Count > 0 {
					v = snap.Quantile(p)
				}
				if _, err = fmt.Fprintf(cw, "%s{quantile=%q} %s\n",
					m.name, formatFloat(p), formatFloat(v)); err != nil {
					break
				}
			}
			if err != nil {
				break
			}
			_, err = fmt.Fprintf(cw, "%s_sum %s\n%s_count %d\n",
				m.name, formatFloat(snap.Sum), m.name, snap.Count)
		}
		if err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
