package obs

import (
	"bytes"
	"io"
)

// FlightRecorder is an Observer that keeps the last N events in a fixed-size
// ring buffer instead of streaming them anywhere — a post-mortem aid for
// long runs: tracing everything to disk is too expensive to leave on, but
// the most recent events are exactly what a panic, a stuck run, or an
// operator poking /debug/flightrecorder needs.
//
// It is the JSONL encoder writing into a ring of lines: every event is
// encoded once, envelope included, into a reused slot. The encoder's mutex
// guards the ring, so a dump (WriteTo) can run concurrently with emitters;
// it holds the lock only long enough to copy the retained lines.
type FlightRecorder struct {
	enc  *JSONL
	ring lineRing
}

// lineRing is the recorder's io.Writer: one Write per encoded line, kept in
// a ring of slots whose buffers are reused once the ring is full.
type lineRing struct {
	lines [][]byte
	next  uint64 // total lines ever written
}

func (r *lineRing) Write(p []byte) (int, error) {
	slot := &r.lines[r.next%uint64(len(r.lines))]
	*slot = append((*slot)[:0], p...)
	r.next++
	return len(p), nil
}

// DefaultFlightEvents is the default ring capacity of NewFlightRecorder.
const DefaultFlightEvents = 4096

// NewFlightRecorder returns a recorder holding the last n events
// (DefaultFlightEvents when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	f := &FlightRecorder{ring: lineRing{lines: make([][]byte, n)}}
	f.enc = NewJSONL(&f.ring)
	return f
}

// Event implements Observer, overwriting the oldest record once the ring is
// full.
func (f *FlightRecorder) Event(name string, fields ...Field) { f.enc.Event(name, fields...) }

// Len returns the number of events currently held (≤ the ring capacity).
func (f *FlightRecorder) Len() int {
	f.enc.mu.Lock()
	defer f.enc.mu.Unlock()
	return int(min(f.ring.next, uint64(len(f.ring.lines))))
}

// Total returns the number of events ever recorded, including overwritten
// ones.
func (f *FlightRecorder) Total() uint64 {
	f.enc.mu.Lock()
	defer f.enc.mu.Unlock()
	return f.ring.next
}

// WriteTo dumps the retained events oldest-first as the JSON Lines the
// JSONL observer writes ({"seq":…,"t_ms":…,"event":…,…}); seq is the
// global event number, so a gap at the front tells the reader how much the
// ring has forgotten.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	f.enc.mu.Lock()
	r := &f.ring
	n := uint64(len(r.lines))
	for i := r.next - min(r.next, n); i < r.next; i++ {
		buf.Write(r.lines[i%n])
	}
	f.enc.mu.Unlock()
	return buf.WriteTo(w)
}
