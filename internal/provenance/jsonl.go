package provenance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"imtao/internal/model"
	"imtao/internal/obs"
)

// JSONL serialization of a Ledger. The ledger's record types are its wire
// format: WriteTo writes each through obs.JSONL.Record, so a line's keys are
// its type's JSON tags in field order after the stream-wide
// seq/t_ms/schema_version/event envelope, and ReadLedger unmarshals the line
// back into the same type, rejecting records written under a different
// schema version. Record types, in emission order, with the ledger type each
// line carries (a *Line wrapper adds an owner key, a count or inline arrays):
//
//	prov_meta      Meta (one)
//	prov_phase1    CenterPhase1 (per center, center order)
//	prov_p1route   center + RecordedRoute, one phase-1 route (after its
//	               prov_phase1)
//	prov_scan      center + ScanEvent, one phase-1 deadline rejection
//	prov_log       game-log header: stage, shard, iteration count (shards
//	               ascending, then the exchange — the order Replay applies
//	               them in)
//	prov_iter      IterRec with its TrialRecs and RecordedRoute delta inlined
//	prov_shard     ShardInfo (at most one)
//	prov_final     Final with its transfer log inlined (one)
//	prov_route     FinalRoute, one final route with its cost breakdown
//	prov_cert      Certificate + witness count (at most one)
//	prov_witness   Witness, one center's best-response evidence
//
// Unknown events (e.g. a run trace sharing the stream) are skipped, so a
// ledger can be read back out of a combined observability file.

type p1RouteLine struct {
	Center model.CenterID `json:"center"`
	RecordedRoute
}

type scanLine struct {
	Center model.CenterID `json:"center"`
	ScanEvent
}

type logLine struct {
	Stage string `json:"stage"`
	Shard int    `json:"shard"`
	Iters int    `json:"iters"`
}

type iterLine struct {
	IterRec
	Trials []TrialRec      `json:"trials"`
	Routes []RecordedRoute `json:"routes"`
}

type finalLine struct {
	Final
	Transfers []transferWire `json:"transfers"`
}

type transferWire struct {
	Src model.CenterID `json:"src"`
	Dst model.CenterID `json:"dst"`
	W   model.WorkerID `json:"w"`
}

type certLine struct {
	Certificate
	Witnesses int `json:"witnesses"`
}

// WriteTo streams the ledger as schema-versioned JSONL. It implements
// io.WriterTo; the byte count is the total written.
func (l *Ledger) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	j := obs.NewJSONL(cw)

	j.Record("prov_meta", &l.Meta)
	for i := range l.Phase1 {
		p := &l.Phase1[i]
		j.Record("prov_phase1", p)
		for _, rt := range p.Routes {
			j.Record("prov_p1route", p1RouteLine{Center: p.Center, RecordedRoute: rt})
		}
	}
	for ci, evs := range l.Scans {
		for _, e := range evs {
			j.Record("prov_scan", scanLine{Center: model.CenterID(ci), ScanEvent: e})
		}
	}

	for _, g := range l.Logs {
		j.Record("prov_log", logLine{Stage: g.Stage, Shard: g.Shard, Iters: len(g.Iters)})
		for i := range g.Iters {
			it := &g.Iters[i]
			j.Record("prov_iter", iterLine{IterRec: *it,
				Trials: orEmpty(g.Trials(it)), Routes: orEmpty(g.RouteDelta(it))})
		}
	}

	if l.Shard != nil {
		j.Record("prov_shard", l.Shard)
	}

	if f := l.Final; f != nil {
		transfers := make([]transferWire, len(f.Transfers))
		for i, tr := range f.Transfers {
			transfers[i] = transferWire{Src: tr.Src, Dst: tr.Dst, W: tr.Worker}
		}
		j.Record("prov_final", finalLine{Final: *f, Transfers: transfers})
		for i := range f.Routes {
			j.Record("prov_route", &f.Routes[i])
		}
	}

	if c := l.Cert; c != nil {
		j.Record("prov_cert", certLine{Certificate: *c, Witnesses: len(c.Centers)})
		for i := range c.Centers {
			j.Record("prov_witness", &c.Centers[i])
		}
	}
	return cw.n, j.Err()
}

// orEmpty returns s, or an empty slice for nil, so an empty array writes
// [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
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

// ReadLedger parses a JSONL stream written by WriteTo back into a Ledger.
// Every prov_* record must carry the current obs.SchemaVersion — a stream
// written by a different schema is rejected on its first provenance record
// rather than misparsed. Events of other types are skipped.
func ReadLedger(r io.Reader) (*Ledger, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	l := NewLedger()
	var cur *GameLog
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Schema *int   `json:"schema_version"`
			Event  string `json:"event"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		if len(probe.Event) < 5 || probe.Event[:5] != "prov_" {
			continue
		}
		// The historical unversioned stream is schema version 1.
		v := 1
		if probe.Schema != nil {
			v = *probe.Schema
		}
		if err := obs.CheckSchemaVersion(v); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		if err := l.readRecord(probe.Event, raw, &cur); err != nil {
			return nil, fmt.Errorf("provenance: line %d (%s): %w", line, probe.Event, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	return l, nil
}

// readRecord dispatches one provenance record into the ledger. cur tracks
// the game log open for prov_iter records.
func (l *Ledger) readRecord(event string, raw []byte, cur **GameLog) error {
	switch event {
	case "prov_meta":
		var m Meta
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		if l.Scans != nil {
			return fmt.Errorf("second prov_meta record")
		}
		if m.Centers < 0 {
			return fmt.Errorf("negative center count %d", m.Centers)
		}
		l.Start(m)

	case "prov_phase1":
		var p CenterPhase1
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if int(p.Center) != len(l.Phase1) {
			return fmt.Errorf("phase-1 record for center %d arrived out of order (have %d)",
				p.Center, len(l.Phase1))
		}
		if err := l.checkCenter(p.Center); err != nil {
			return err
		}
		l.Phase1 = append(l.Phase1, p)

	case "prov_p1route":
		var p p1RouteLine
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if err := l.checkCenter(p.Center); err != nil {
			return err
		}
		if int(p.Center) >= len(l.Phase1) {
			return fmt.Errorf("route for center %d precedes its phase-1 record", p.Center)
		}
		cp := &l.Phase1[p.Center]
		cp.Routes = append(cp.Routes, p.RecordedRoute)

	case "prov_scan":
		var s scanLine
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		if err := l.checkCenter(s.Center); err != nil {
			return err
		}
		l.Scans[s.Center] = append(l.Scans[s.Center], s.ScanEvent)

	case "prov_log":
		var g logLine
		if err := json.Unmarshal(raw, &g); err != nil {
			return err
		}
		*cur = l.NewGameLog(g.Stage, g.Shard)

	case "prov_iter":
		if *cur == nil {
			return fmt.Errorf("iteration record precedes any prov_log header")
		}
		var it iterLine
		if err := json.Unmarshal(raw, &it); err != nil {
			return err
		}
		g := *cur
		rec := it.IterRec
		rec.TrialOff, rec.TrialN = len(g.trials), len(it.Trials)
		rec.RouteOff, rec.RouteN = len(g.routes), len(it.Routes)
		g.trials = append(g.trials, it.Trials...)
		for _, rt := range it.Routes {
			g.routes = append(g.routes, RecordedRoute{
				Worker: rt.Worker, Tasks: g.taskArb.Copy(rt.Tasks)})
		}
		g.Iters = append(g.Iters, rec)

	case "prov_shard":
		var s ShardInfo
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		l.Shard = &s

	case "prov_final":
		var f finalLine
		if err := json.Unmarshal(raw, &f); err != nil {
			return err
		}
		f.Final.Transfers = make([]model.Transfer, len(f.Transfers))
		for i, tr := range f.Transfers {
			f.Final.Transfers[i] = model.Transfer{Src: tr.Src, Dst: tr.Dst, Worker: tr.W}
		}
		l.Final = &f.Final

	case "prov_route":
		if l.Final == nil {
			return fmt.Errorf("final route precedes the prov_final record")
		}
		var rt FinalRoute
		if err := json.Unmarshal(raw, &rt); err != nil {
			return err
		}
		if len(rt.Arrive) != len(rt.Tasks) || len(rt.Expiry) != len(rt.Tasks) {
			return fmt.Errorf("route of worker %d has %d tasks, %d arrivals, %d expiries",
				rt.Worker, len(rt.Tasks), len(rt.Arrive), len(rt.Expiry))
		}
		l.Final.Routes = append(l.Final.Routes, rt)

	case "prov_cert":
		var c certLine
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		l.Cert = &c.Certificate

	case "prov_witness":
		if l.Cert == nil {
			return fmt.Errorf("witness precedes the prov_cert record")
		}
		var w Witness
		if err := json.Unmarshal(raw, &w); err != nil {
			return err
		}
		l.Cert.Centers = append(l.Cert.Centers, w)

	default:
		// Forward compatibility within the same schema version: a prov_*
		// record type this build does not know is an error — the schema
		// version should have been bumped.
		return fmt.Errorf("unknown provenance record type")
	}
	return nil
}

// checkCenter rejects a record's center ID outside the run's centers.
func (l *Ledger) checkCenter(c model.CenterID) error {
	if c < 0 || int(c) >= l.Meta.Centers {
		return fmt.Errorf("center %d outside the run's %d centers", c, l.Meta.Centers)
	}
	return nil
}
