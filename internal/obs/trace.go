package obs

import (
	"bytes"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span inside a Tracer. IDs are allocated from 1;
// zero is the root sentinel (a span whose parent is 0 is a trace root).
type SpanID uint64

// SpanInfo is one completed span of a trace: a named, timed region with a
// parent link. The span tree of a pipeline run nests
// run → phase1 → phase1_center and run → phase2 → game_iter → trial, with
// dijkstra spans (oracle table misses) attaching under the run.
type SpanInfo struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Args   []Field
}

// Tracer records hierarchical spans into a bounded in-memory trace. It is
// safe for concurrent use: phase-1 center workers and concurrent shard games
// start and end spans from their own goroutines; ID allocation is one atomic
// add and completion is a short mutex-guarded append.
//
// A nil *Tracer is the disabled tracer: Start returns the inert zero
// TraceSpan without reading the clock or allocating, so untraced runs pay
// nothing. Instrumentation sites gate their Field construction on tr != nil.
//
// When the trace fills up (maxSpans completed spans), further spans are
// counted in Dropped and discarded — the trace keeps the run's prefix, which
// is what a timeline viewer needs, rather than growing without bound on a
// 100k-task run with hundreds of thousands of trials.
type Tracer struct {
	cap     int
	start   time.Time
	nextID  atomic.Uint64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []SpanInfo
}

// DefaultTraceSpans is the default completed-span capacity of NewTracer —
// enough for every iteration and trial of a mid-scale run while bounding a
// 100k-task trace to tens of megabytes.
const DefaultTraceSpans = 1 << 18

// NewTracer returns a tracer bounded to maxSpans completed spans
// (DefaultTraceSpans when maxSpans <= 0).
func NewTracer(maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultTraceSpans
	}
	return &Tracer{cap: maxSpans, start: time.Now()}
}

// TraceSpan is an open span handle. The zero TraceSpan (from a nil Tracer)
// is inert: ID returns 0 and End does nothing.
type TraceSpan struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	args   []Field
}

// Start opens a span under parent (0 = trace root) and returns its handle.
// On a nil tracer it returns the inert zero TraceSpan.
func (t *Tracer) Start(parent SpanID, name string, args ...Field) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	return TraceSpan{
		tr:     t,
		id:     SpanID(t.nextID.Add(1)),
		parent: parent,
		name:   name,
		start:  time.Now(),
		args:   args,
	}
}

// ID returns the span's ID — the parent link for child spans. Zero for the
// inert span.
func (s TraceSpan) ID() SpanID { return s.id }

// End completes the span, merging args given at Start and End and recording
// it into the tracer.
func (s TraceSpan) End(args ...Field) {
	if s.tr == nil {
		return
	}
	dur := time.Since(s.start)
	all := s.args
	if len(args) > 0 {
		all = make([]Field, 0, len(s.args)+len(args))
		all = append(all, s.args...)
		all = append(all, args...)
	}
	s.tr.record(SpanInfo{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Dur: dur, Args: all})
}

func (t *Tracer) record(sp SpanInfo) {
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Len returns the number of completed spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded after the trace filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a copy of the completed spans in completion order.
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanInfo(nil), t.spans...)
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON (the format
// ui.perfetto.dev and chrome://tracing open): one complete ("X") event per
// span with microsecond timestamps relative to the tracer's start.
//
// Chrome nests events on the same tid by time containment, so spans are laid
// out onto synthetic tracks: a span lands on its parent's track when the
// parent still encloses it, otherwise on the first track where it does not
// partially overlap an open span (concurrent siblings — phase-1 centers,
// shard games' iterations — fan out onto their own tracks). Every event additionally
// carries span_id and parent_id args, so the exact span tree survives the
// export independent of track layout.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	// Parents sort before their children: by start time, longest first on
	// ties (a parent starts no later and ends no earlier than its child).
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur
		}
		return spans[i].ID < spans[j].ID
	})

	type open struct{ startNS, endNS int64 }
	var lanes [][]open // per-lane stack of open (containing) spans
	laneOf := make(map[SpanID]int, len(spans))
	lane := make([]int, len(spans))
	for i := range spans {
		s := &spans[i]
		startNS := s.Start.Sub(t.start).Nanoseconds()
		endNS := startNS + s.Dur.Nanoseconds()
		fits := func(li int) bool {
			st := lanes[li]
			for len(st) > 0 && st[len(st)-1].endNS <= startNS {
				st = st[:len(st)-1]
			}
			lanes[li] = st
			return len(st) == 0 ||
				(st[len(st)-1].startNS <= startNS && st[len(st)-1].endNS >= endNS)
		}
		chosen := -1
		if pl, ok := laneOf[s.Parent]; ok && fits(pl) {
			chosen = pl
		} else {
			for li := range lanes {
				if fits(li) {
					chosen = li
					break
				}
			}
			if chosen < 0 {
				lanes = append(lanes, nil)
				chosen = len(lanes) - 1
			}
		}
		lanes[chosen] = append(lanes[chosen], open{startNS, endNS})
		laneOf[s.ID] = chosen
		lane[i] = chosen
	}

	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	buf.WriteString(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"imtao"}}`)
	for li := range lanes {
		buf.WriteString(`,{"ph":"M","pid":1,"tid":`)
		buf.WriteString(strconv.Itoa(li))
		buf.WriteString(`,"name":"thread_name","args":{"name":"track `)
		buf.WriteString(strconv.Itoa(li))
		buf.WriteString(`"}}`)
	}
	for i := range spans {
		s := &spans[i]
		buf.WriteString(`,{"ph":"X","pid":1,"cat":"imtao","tid":`)
		buf.WriteString(strconv.Itoa(lane[i]))
		buf.WriteString(`,"name":`)
		appendJSONValue(&buf, s.Name)
		buf.WriteString(`,"ts":`)
		buf.WriteString(strconv.FormatFloat(float64(s.Start.Sub(t.start).Nanoseconds())/1e3, 'f', 3, 64))
		buf.WriteString(`,"dur":`)
		buf.WriteString(strconv.FormatFloat(float64(s.Dur.Nanoseconds())/1e3, 'f', 3, 64))
		buf.WriteString(`,"args":{"span_id":`)
		buf.WriteString(strconv.FormatUint(uint64(s.ID), 10))
		buf.WriteString(`,"parent_id":`)
		buf.WriteString(strconv.FormatUint(uint64(s.Parent), 10))
		appendFields(&buf, s.Args)
		buf.WriteString(`}}`)
		if buf.Len() >= 1<<16 {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	buf.WriteString(`],"metadata":{"dropped_spans":`)
	buf.WriteString(strconv.FormatInt(t.Dropped(), 10))
	buf.WriteString("}}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
