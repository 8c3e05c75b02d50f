package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderRetainsTail(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Event("tick", F("i", i))
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d dump lines, want 4\n%s", len(lines), buf.String())
	}
	// The ring keeps the LAST 4 events: seqs 7..10 with their i fields.
	for k, line := range lines {
		var ev struct {
			Seq   uint64  `json:"seq"`
			TMs   float64 `json:"t_ms"`
			Event string  `json:"event"`
			I     int     `json:"i"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid dump line %q: %v", line, err)
		}
		if ev.Seq != uint64(7+k) || ev.I != 6+k || ev.Event != "tick" {
			t.Errorf("line %d = %+v, want seq %d i %d", k, ev, 7+k, 6+k)
		}
	}
}

func TestFlightRecorderEmptyAndNoFields(t *testing.T) {
	f := NewFlightRecorder(0) // default capacity
	var buf bytes.Buffer
	if n, err := f.WriteTo(&buf); err != nil || n != 0 {
		t.Fatalf("empty dump: n=%d err=%v", n, err)
	}
	f.Event("bare")
	buf.Reset()
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("bare event dump invalid: %v (%q)", err, buf.String())
	}
	if ev["event"] != "bare" {
		t.Errorf("event = %v", ev["event"])
	}
}

// TestFlightRecorderConcurrent dumps while emitters hammer the ring; under
// -race this is the lock-discipline check for the recorder.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
				if line == "" {
					continue
				}
				if !json.Valid([]byte(line)) {
					t.Errorf("torn dump line %q", line)
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				f.Event("tick", F("g", g), F("k", k))
			}
		}(g)
	}
	wg.Wait()
	if f.Total() != goroutines*per {
		t.Errorf("Total = %d, want %d", f.Total(), goroutines*per)
	}
}

func TestMultiObserver(t *testing.T) {
	var a, b bytes.Buffer
	ja, jb := NewJSONL(&a), NewJSONL(&b)
	m := Multi(nil, Nop, ja, jb)
	m.Event("x", F("k", 1))
	if !strings.Contains(a.String(), `"event":"x"`) || !strings.Contains(b.String(), `"event":"x"`) {
		t.Errorf("fan-out failed: a=%q b=%q", a.String(), b.String())
	}
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Error("empty Multi must collapse to Nop")
	}
	if Multi(ja) != Observer(ja) {
		t.Error("single Multi must unwrap")
	}
	if Enabled(Nop) || Enabled(nil) {
		t.Error("Nop and nil must report disabled")
	}
	if !Enabled(ja) {
		t.Error("real observer must report enabled")
	}
}
