package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// ProfileRing is a continuous profiler with bounded disk use: every interval
// it captures one CPU profile (sampled over a short window) and one heap
// profile into a directory, keeping only the most recent N of each kind.
// When a run later turns out to have been slow — or dies — the last few
// profiles are already on disk, covering the minutes that mattered, without
// anyone having attached a profiler in advance.
//
// CPU capture degrades gracefully: runtime/pprof allows one active CPU
// profile per process, so when something else holds it (go test -cpuprofile,
// an operator on /debug/pprof/profile) the ring records the miss in a
// counter and still captures the heap.
type ProfileRing struct {
	dir       string
	interval  time.Duration
	cpuWindow time.Duration
	keep      int

	cCaptures *Counter
	cCPUMiss  *Counter
	cErrors   *Counter

	mu   sync.Mutex
	seq  int
	stop chan struct{}
	done chan struct{}
}

// DefaultProfileKeep is how many profiles of each kind a ring retains when
// the caller passes keep <= 0.
const DefaultProfileKeep = 8

// NewProfileRing builds a ring writing into dir (created if missing). Every
// interval (min 1s enforced; <=0 selects 60s) one capture runs: a CPU
// profile sampled for cpuWindow (<=0 selects interval/4, capped at 10s) and
// a heap snapshot. keep bounds retained files per kind. Counters register on
// r (Default when nil).
func NewProfileRing(dir string, interval, cpuWindow time.Duration, keep int, r *Registry) (*ProfileRing, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 60 * time.Second
	}
	if interval < time.Second {
		interval = time.Second
	}
	if cpuWindow <= 0 {
		cpuWindow = interval / 4
		if cpuWindow > 10*time.Second {
			cpuWindow = 10 * time.Second
		}
	}
	if cpuWindow >= interval {
		cpuWindow = interval / 2
	}
	if keep <= 0 {
		keep = DefaultProfileKeep
	}
	if r == nil {
		r = Default
	}
	return &ProfileRing{
		dir:       dir,
		interval:  interval,
		cpuWindow: cpuWindow,
		keep:      keep,
		cCaptures: r.Counter("imtao_profile_captures_total",
			"continuous-profile capture cycles completed"),
		cCPUMiss: r.Counter("imtao_profile_cpu_unavailable_total",
			"capture cycles that skipped CPU (another CPU profile was active)"),
		cErrors: r.Counter("imtao_profile_errors_total",
			"profile captures that failed to write"),
	}, nil
}

// CaptureNow runs one capture cycle synchronously: a CPU profile sampled
// over the ring's window, a heap snapshot, and a prune of files beyond the
// retention bound. It returns the paths written (the CPU path is empty when
// the profiler was unavailable). cancel, when non-nil, cuts the CPU window
// short — the background loop passes its stop channel so Stop never waits a
// full window.
func (p *ProfileRing) CaptureNow(cancel <-chan struct{}) (cpuPath, heapPath string, err error) {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()

	cpuPath = filepath.Join(p.dir, fmt.Sprintf("cpu-%06d.pprof", seq))
	if werr := p.captureCPU(cpuPath, cancel); werr != nil {
		cpuPath = ""
		if werr == errCPUBusy {
			p.cCPUMiss.Inc()
		} else {
			p.cErrors.Inc()
			err = werr
		}
	}

	heapPath = filepath.Join(p.dir, fmt.Sprintf("heap-%06d.pprof", seq))
	if werr := writeHeapProfile(heapPath); werr != nil {
		heapPath = ""
		p.cErrors.Inc()
		if err == nil {
			err = werr
		}
	}

	p.prune()
	p.cCaptures.Inc()
	return cpuPath, heapPath, err
}

var errCPUBusy = fmt.Errorf("obs: CPU profiler already active")

func (p *ProfileRing) captureCPU(path string, cancel <-chan struct{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return errCPUBusy
	}
	t := time.NewTimer(p.cpuWindow)
	select {
	case <-t.C:
	case <-cancel:
		t.Stop()
	}
	pprof.StopCPUProfile()
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// DumpNow writes an out-of-cycle heap profile named after reason — e.g.
// heap-panic.pprof next to the flight-recorder dump — outside the ring's
// numbering, so a crash artifact is never pruned away by later captures.
func (p *ProfileRing) DumpNow(reason string) (string, error) {
	reason = sanitizeReason(reason)
	path := filepath.Join(p.dir, "heap-"+reason+".pprof")
	if err := writeHeapProfile(path); err != nil {
		p.cErrors.Inc()
		return "", err
	}
	return path, nil
}

func sanitizeReason(reason string) string {
	if reason == "" {
		return "dump"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, reason)
}

// prune removes numbered ring files beyond the retention bound, oldest
// first, per kind. Reason-named dumps (non-numeric suffix) are never pruned.
func (p *ProfileRing) prune() {
	for _, prefix := range []string{"cpu-", "heap-"} {
		matches, err := filepath.Glob(filepath.Join(p.dir, prefix+"*.pprof"))
		if err != nil {
			continue
		}
		var ring []string
		for _, m := range matches {
			base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), prefix), ".pprof")
			if len(base) == 6 && strings.Trim(base, "0123456789") == "" {
				ring = append(ring, m)
			}
		}
		sort.Strings(ring) // zero-padded seq sorts chronologically
		for len(ring) > p.keep {
			os.Remove(ring[0])
			ring = ring[1:]
		}
	}
}

// Running reports whether the background capture loop is active.
func (p *ProfileRing) Running() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stop != nil
}

// Start launches the periodic capture loop. No-op when already running.
func (p *ProfileRing) Start() {
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.stop, p.done = stop, done
	p.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.CaptureNow(stop)
			}
		}
	}()
}

// Stop halts the capture loop and waits for any in-flight capture to finish
// (the CPU window is cut short). Idempotent.
func (p *ProfileRing) Stop() {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
