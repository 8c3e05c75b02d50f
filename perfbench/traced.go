package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imtao"
	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/provenance"
)

// The traced pass repeats the timed solve's pipeline — core.Run's steps in
// core.Run's order, on the same long-lived instance and network — but calls
// each layer's entry point from here and times every call. README.md lists
// the entry points it depends on.

// span is one timed call of the traced pass. Spans of one traced solve share
// a solve number; parent 0 marks a root.
type span struct {
	Solve   int    `json:"solve"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the traced pass's spans in memory until the run ends. Safe
// for concurrent use: phase-1 centers record from several goroutines.
type spanLog struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	log    *spanLog
	solve  int
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (l *spanLog) start(solve int, parent int64, name string) openSpan {
	return openSpan{log: l, solve: solve, id: l.nextID.Add(1), parent: parent,
		name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (s openSpan) end() time.Duration {
	end := time.Now()
	l := s.log
	l.mu.Lock()
	l.spans = append(l.spans, span{Solve: s.solve, ID: s.id, Parent: s.parent, Name: s.name,
		StartNs: s.start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
	return end.Sub(s.start)
}

// timed runs f inside a span and returns its duration.
func (l *spanLog) timed(solve int, parent int64, name string, f func()) time.Duration {
	s := l.start(solve, parent, name)
	f()
	return s.end()
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSolve is what one traced solve measured.
type tracedSolve struct {
	wall, attributed time.Duration
	phase1           time.Duration
	centers          []time.Duration
	assignStats      assign.Stats
	steps            []time.Duration
	finish           time.Duration
	phase2           time.Duration
	searchesPhase1   int64
	searchesPhase2   int64
	finalDur         time.Duration
	finalSearches    int64
	certDur          time.Duration

	sol           *model.Solution
	phase1Results []assign.Result
	game          collab.Result
	shard         *collab.ShardReport
	ledger        *provenance.Ledger
}

// gameConfig is the collaboration config core.Run builds for the Sequential
// assigner at default parallelism and pruning.
func gameConfig() collab.Config {
	return collab.Config{Assigner: assign.Sequential}
}

// traceSolve runs the pipeline of one imtao.Run with this workload's
// options, timing each layer call under one root span.
func (w spec) traceSolve(in *model.Instance, net *imtao.RoadNetwork, log *spanLog, solve int) (*tracedSolve, error) {
	out := &tracedSolve{}
	root := log.start(solve, 0, "solve")
	child := func(name string, f func()) time.Duration {
		d := log.timed(solve, root.id, name, f)
		out.attributed += d
		return d
	}

	var err error
	child("model.validate", func() { err = in.Validate() })
	if err != nil {
		return nil, err
	}
	var prov *provenance.Ledger
	if w.audit {
		prov = provenance.NewLedger()
		prov.Start(provenance.Meta{Method: w.method.String(), Engine: "game",
			Scope: provenance.ScopeFull, Centers: len(in.Centers),
			Workers: len(in.Workers), Tasks: len(in.Tasks)})
	}
	child("model.prepare", func() {
		in.PrepareMetric()
		in.EnsureHot()
	})
	if net != nil {
		child("roadnet.pin", func() { net.PrecomputeSources(centerLocs(in)) })
	}

	// Phase 1: one assign call per center on GOMAXPROCS goroutines, as
	// core.Run fans it out.
	s0, _, _ := oracleCounters(net)
	phase1 := make([]assign.Result, len(in.Centers))
	out.centers = make([]time.Duration, len(in.Centers))
	p1 := log.start(solve, root.id, "assign.phase1")
	par := min(runtime.GOMAXPROCS(0), len(in.Centers))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for g := 0; g < par; g++ {
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1) - 1)
				if ci >= len(in.Centers) {
					return
				}
				c := in.Center(model.CenterID(ci))
				s := log.start(solve, p1.id, "assign.center")
				if prov != nil {
					phase1[ci] = assign.SequentialOpt(in, c, c.Workers, c.Tasks,
						assign.Options{Scan: prov.ScanRecorder(model.CenterID(ci))})
				} else {
					phase1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
				}
				out.centers[ci] = s.end()
			}
		}()
	}
	wg.Wait()
	out.phase1 = p1.end()
	out.attributed += out.phase1
	s1, _, _ := oracleCounters(net)
	out.searchesPhase1 = s1 - s0
	for ci := range phase1 {
		st := phase1[ci].Stats
		out.assignStats.TasksScanned += st.TasksScanned
		out.assignStats.RouteExtensions += st.RouteExtensions
		out.assignStats.DeadlineRejections += st.DeadlineRejections
	}
	out.phase1Results = phase1

	p1sol := collab.NoCollaboration(in, phase1)
	p1ratios := metrics.Ratios(in, p1sol)
	_ = metrics.Unfairness(p1ratios)
	if prov != nil {
		child("provenance.phase1", func() { prov.RecordPhase1(in, phase1, p1ratios) })
	}

	// Phase 2.
	ccfg := gameConfig()
	switch {
	case w.method.Collab == imtao.SeqWoC.Collab:
		out.sol = p1sol
	case w.sharded:
		out.phase2 = child("collab.sharded", func() {
			res, srep := collab.RunSharded(in, phase1, collab.ShardConfig{
				Config: ccfg, Shards: collab.ShardAuto})
			out.game, out.shard = res, &srep
		})
		out.sol = out.game.Solution
	default:
		if prov != nil {
			ccfg.Prov = prov.NewGameLog(provenance.StageGame, -1)
		}
		gs := log.start(solve, root.id, "collab.game")
		g := collab.NewGame(in, phase1, ccfg)
		for !g.Over() {
			s := log.start(solve, gs.id, "collab.step")
			g.Step()
			out.steps = append(out.steps, s.end())
		}
		out.finish = log.timed(solve, gs.id, "collab.finish", func() { out.game = g.Finish() })
		out.phase2 = gs.end()
		out.attributed += out.phase2
		out.sol = out.game.Solution
	}
	s2, _, _ := oracleCounters(net)
	out.searchesPhase2 = s2 - s1

	ratios := metrics.Ratios(in, out.sol)
	unfairness := metrics.Unfairness(ratios)
	if prov != nil {
		out.finalDur = child("provenance.final", func() { prov.RecordFinal(in, out.sol, unfairness) })
		s3, _, _ := oracleCounters(net)
		out.finalSearches = s3 - s2
		out.certDur = child("provenance.cert", func() {
			prov.Cert = provenance.BuildCertificate(in, out.sol, provenance.ScopeFull)
		})
		out.ledger = prov
	}
	out.wall = root.end()
	return out, nil
}
