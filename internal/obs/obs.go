// Package obs is the zero-dependency observability layer of the IMTAO
// pipeline. It provides two complementary views of a running system:
//
//   - Process-wide metrics — counters, gauges and quantile summaries
//     collected in a Registry and exported as a Prometheus text-format
//     snapshot (Registry.WriteTo). Instrumented packages register their
//     metrics on the package-level Default registry, exactly like promauto,
//     so the /metrics endpoint of cmd/imtao-sim and the -metrics-out flag of
//     cmd/imtao-bench see every subsystem without any plumbing.
//
//   - Per-run event streams — an Observer receives named structured events
//     (game iterations, phase latencies, per-center assignment statistics)
//     from one pipeline run. The JSONL implementation serializes them one
//     JSON object per line; Nop discards them with zero allocation, so an
//     uninstrumented run pays nothing.
package obs

import "time"

// Field is one key/value pair of a structured event. Values must be
// JSON-serializable (numbers, strings, bools, slices of those).
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Observer receives structured telemetry events from a pipeline run.
// Implementations must be safe for concurrent use: a RuntimeSampler emits
// from its own goroutine while a run emits from the solving one.
type Observer interface {
	// Event records a named point-in-time event.
	Event(name string, fields ...Field)
}

type nopObserver struct{}

func (nopObserver) Event(string, ...Field) {}

// Nop is the no-op Observer: every event is discarded. It is the default
// wherever an Observer is optional.
var Nop Observer = nopObserver{}

// Enabled reports whether o is a real observer — non-nil and not Nop.
// Instrumentation sites use it to skip field construction entirely on
// unobserved runs.
func Enabled(o Observer) bool { return o != nil && o != Nop }

// Multi fans every event out to each enabled observer, letting one run feed
// a JSONL stream and a flight recorder at once. Disabled observers (nil,
// Nop) are dropped; with none left it returns Nop, with one it returns that
// observer unwrapped.
func Multi(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if Enabled(o) {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) Event(name string, fields ...Field) {
	for _, o := range m {
		o.Event(name, fields...)
	}
}

// DurationMs converts a duration to fractional milliseconds, the unit every
// emitted latency field uses.
func DurationMs(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
