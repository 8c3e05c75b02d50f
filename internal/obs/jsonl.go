package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// JSONL is an Observer that serializes every event as one JSON object per
// line, preserving field order:
//
//	{"seq":3,"t_ms":0.412,"schema_version":2,"event":"game_iter","iter":1,...}
//
// seq is a per-stream sequence number, t_ms the elapsed milliseconds since
// the stream was created, schema_version the record-schema version readers
// validate with CheckSchemaVersion. Writes are serialized by a mutex, so one JSONL may
// receive events from many goroutines; the first write error is latched and
// reported by Err.
type JSONL struct {
	mu    sync.Mutex
	w     io.Writer
	buf   bytes.Buffer
	seq   int64
	start time.Time
	clock func() time.Time
	err   error
}

// NewJSONL builds a JSONL observer writing to w.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: w, clock: time.Now}
	j.start = j.clock()
	return j
}

// SetClock replaces the time source — a test hook that makes the t_ms field
// deterministic for golden output.
func (j *JSONL) SetClock(fn func() time.Time) {
	j.mu.Lock()
	j.clock = fn
	j.start = fn()
	j.mu.Unlock()
}

// Event implements Observer.
func (j *JSONL) Event(name string, fields ...Field) { j.line(name, fields, nil) }

// Record writes one event whose fields are v's JSON object — a struct's
// tagged fields in declaration order — after the envelope Event writes, so
// a record type is its own field list. v must marshal to an object; one
// that does not marshal writes nothing and latches the error Err reports.
func (j *JSONL) Record(name string, v any) {
	obj, err := json.Marshal(v)
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
		return
	}
	j.line(name, nil, obj[1:len(obj)-1])
}

// line writes one record: the seq/t_ms/schema_version/event envelope every
// line of the stream carries, then the fields, then members (an object's
// `"key":value,...` inside its braces).
func (j *JSONL) line(name string, fields []Field, members []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	j.buf.Reset()
	j.buf.WriteString(`{"seq":`)
	j.buf.WriteString(strconv.FormatInt(j.seq, 10))
	j.buf.WriteString(`,"t_ms":`)
	ms := float64(j.clock().Sub(j.start).Nanoseconds()) / 1e6
	j.buf.WriteString(strconv.FormatFloat(ms, 'f', 3, 64))
	j.buf.WriteString(`,"schema_version":`)
	j.buf.WriteString(strconv.Itoa(SchemaVersion))
	j.buf.WriteString(`,"event":`)
	appendJSONValue(&j.buf, name)
	appendFields(&j.buf, fields)
	if len(members) > 0 {
		j.buf.WriteByte(',')
		j.buf.Write(members)
	}
	j.buf.WriteString("}\n")
	if _, err := j.w.Write(j.buf.Bytes()); err != nil {
		j.err = err
	}
}

// appendFields renders `,"key":value` for every field — the event body
// encoding of the JSONL observer and the Chrome-trace span arguments.
func appendFields(buf *bytes.Buffer, fields []Field) {
	for _, f := range fields {
		buf.WriteByte(',')
		appendJSONValue(buf, f.Key)
		buf.WriteByte(':')
		appendJSONValue(buf, f.Value)
	}
}

// appendJSONValue marshals v into buf, substituting an error string for
// unmarshalable values so one bad field cannot corrupt the stream.
func appendJSONValue(buf *bytes.Buffer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal("!marshal: " + err.Error())
	}
	buf.Write(b)
}

// Err returns the first write error encountered, if any. Events after an
// error are dropped.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
