package provenance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"imtao/internal/model"
	"imtao/internal/obs"
)

// JSONL serialization of a Ledger. WriteTo streams the ledger through the
// internal/obs JSONL encoder as prov_* record types — every line carries the
// stream-wide seq/t_ms/schema_version envelope — and ReadLedger parses the
// stream back into an equivalent Ledger, rejecting records written under a
// different schema version. Record types, in emission order:
//
//	prov_meta      run metadata (one)
//	prov_phase1    one center's phase-1 summary (per center, center order)
//	prov_p1route   one phase-1 route (grouped after its prov_phase1)
//	prov_scan      one phase-1 deadline-rejection scan event
//	prov_log       game-log header (shards ascending, then the exchange
//	               — the order Replay applies them in)
//	prov_iter      one game iteration, trials and route delta inlined
//	prov_shard     sharded-engine partition summary (at most one)
//	prov_final     final outcome incl. transfer log (one)
//	prov_route     one final route with its cost breakdown
//	prov_cert      equilibrium certificate header (at most one)
//	prov_witness   one center's best-response witness
//
// Unknown events (e.g. a run trace sharing the stream) are skipped, so a
// ledger can be read back out of a combined observability file.

// Wire shapes for the nested payloads. Flat record fields reuse the ledger
// structs' JSON tags directly.
type trialWire struct {
	W model.WorkerID `json:"w"`
	N int32          `json:"n"`
	M uint8          `json:"m"`
}

type routeWire struct {
	W model.WorkerID `json:"w"`
	T []model.TaskID `json:"t"`
}

type transferWire struct {
	Src model.CenterID `json:"src"`
	Dst model.CenterID `json:"dst"`
	W   model.WorkerID `json:"w"`
}

// WriteTo streams the ledger as schema-versioned JSONL. It implements
// io.WriterTo; the byte count is the total written.
func (l *Ledger) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	j := obs.NewJSONL(cw)

	j.Event("prov_meta",
		obs.F("method", l.Meta.Method), obs.F("engine", l.Meta.Engine),
		obs.F("scope", l.Meta.Scope), obs.F("centers", l.Meta.Centers),
		obs.F("workers", l.Meta.Workers), obs.F("tasks", l.Meta.Tasks),
		obs.F("seed", l.Meta.Seed))

	for i := range l.Phase1 {
		p := &l.Phase1[i]
		j.Event("prov_phase1",
			obs.F("center", p.Center), obs.F("tasks", p.Tasks),
			obs.F("assigned", p.Assigned), obs.F("rho", p.Rho),
			obs.F("left_workers", p.LeftWorkers), obs.F("left_tasks", p.LeftTasks))
		for _, rt := range p.Routes {
			j.Event("prov_p1route",
				obs.F("center", p.Center), obs.F("w", rt.Worker), obs.F("t", rt.Tasks))
		}
	}
	for ci, evs := range l.Scans {
		for _, e := range evs {
			j.Event("prov_scan",
				obs.F("center", ci), obs.F("w", e.Worker), obs.F("task", e.Task),
				obs.F("arrive", e.Arrive), obs.F("expiry", e.Expiry))
		}
	}

	for _, g := range l.Logs {
		j.Event("prov_log",
			obs.F("stage", g.Stage), obs.F("shard", g.Shard), obs.F("iters", len(g.Iters)))
		for i := range g.Iters {
			it := &g.Iters[i]
			trials := make([]trialWire, it.TrialN)
			for k, tr := range g.Trials(it) {
				trials[k] = trialWire{W: tr.Worker, N: tr.Assigned, M: tr.Mode}
			}
			routes := make([]routeWire, it.RouteN)
			for k, rt := range g.RouteDelta(it) {
				routes[k] = routeWire{W: rt.Worker, T: rt.Tasks}
			}
			j.Event("prov_iter",
				obs.F("iter", it.Iter), obs.F("recipient", it.Recipient),
				obs.F("accepted", it.Accepted), obs.F("w", it.Worker),
				obs.F("source", it.Source), obs.F("rho_before", it.RhoBefore),
				obs.F("rho_after", it.RhoAfter), obs.F("phi", it.Phi),
				obs.F("pruned", it.Pruned), obs.F("slack", it.Slack),
				obs.F("replace", it.Replace),
				obs.F("trials", trials), obs.F("routes", routes))
		}
	}

	if s := l.Shard; s != nil {
		j.Event("prov_shard",
			obs.F("shards", s.Shards), obs.F("shard_of", s.ShardOf),
			obs.F("exchange_iters", s.ExchangeIters),
			obs.F("exchange_transfers", s.ExchangeTransfers))
	}

	if f := l.Final; f != nil {
		transfers := make([]transferWire, len(f.Transfers))
		for i, tr := range f.Transfers {
			transfers[i] = transferWire{Src: tr.Src, Dst: tr.Dst, W: tr.Worker}
		}
		j.Event("prov_final",
			obs.F("assigned", f.Assigned), obs.F("unfairness", f.Unfairness),
			obs.F("fingerprint", f.Fingerprint), obs.F("transfers", transfers))
		for i := range f.Routes {
			rt := &f.Routes[i]
			j.Event("prov_route",
				obs.F("w", rt.Worker), obs.F("center", rt.Center),
				obs.F("t", rt.Tasks), obs.F("arrive", rt.Arrive),
				obs.F("expiry", rt.Expiry), obs.F("hours", rt.Hours))
		}
	}

	if c := l.Cert; c != nil {
		j.Event("prov_cert",
			obs.F("scope", c.Scope), obs.F("fingerprint", c.SolutionFP),
			obs.F("phi", c.Phi), obs.F("eps", c.Eps),
			obs.F("equilibrium", c.Equilibrium), obs.F("witnesses", len(c.Centers)))
		for i := range c.Centers {
			wt := &c.Centers[i]
			j.Event("prov_witness",
				obs.F("center", wt.Center), obs.F("task_count", wt.TaskCount),
				obs.F("assigned", wt.Assigned), obs.F("rho", wt.Rho),
				obs.F("slack", wt.Slack), obs.F("candidates", wt.Candidates),
				obs.F("pruned", wt.Pruned), obs.F("best_rho", wt.BestRho),
				obs.F("best_worker", wt.BestWorker), obs.F("hash", wt.Hash))
		}
	}
	return cw.n, j.Err()
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
		var m struct {
			Method  string `json:"method"`
			Engine  string `json:"engine"`
			Scope   string `json:"scope"`
			Centers int    `json:"centers"`
			Workers int    `json:"workers"`
			Tasks   int    `json:"tasks"`
			Seed    int64  `json:"seed"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		l.Start(Meta{Method: m.Method, Engine: m.Engine, Scope: m.Scope,
			Centers: m.Centers, Workers: m.Workers, Tasks: m.Tasks, Seed: m.Seed})

	case "prov_phase1":
		var p struct {
			Center      model.CenterID   `json:"center"`
			Tasks       int              `json:"tasks"`
			Assigned    int              `json:"assigned"`
			Rho         float64          `json:"rho"`
			LeftWorkers []model.WorkerID `json:"left_workers"`
			LeftTasks   []model.TaskID   `json:"left_tasks"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if int(p.Center) != len(l.Phase1) {
			return fmt.Errorf("phase-1 record for center %d arrived out of order (have %d)",
				p.Center, len(l.Phase1))
		}
		l.Phase1 = append(l.Phase1, CenterPhase1{
			Center: p.Center, Tasks: p.Tasks, Assigned: p.Assigned, Rho: p.Rho,
			LeftWorkers: p.LeftWorkers, LeftTasks: p.LeftTasks})

	case "prov_p1route":
		var p struct {
			Center model.CenterID `json:"center"`
			W      model.WorkerID `json:"w"`
			T      []model.TaskID `json:"t"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if int(p.Center) >= len(l.Phase1) {
			return fmt.Errorf("route for center %d precedes its phase-1 record", p.Center)
		}
		cp := &l.Phase1[p.Center]
		cp.Routes = append(cp.Routes, RecordedRoute{Worker: p.W, Tasks: p.T})

	case "prov_scan":
		var s struct {
			Center int            `json:"center"`
			W      model.WorkerID `json:"w"`
			Task   model.TaskID   `json:"task"`
			Arrive float64        `json:"arrive"`
			Expiry float64        `json:"expiry"`
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		if s.Center < 0 || s.Center >= len(l.Scans) {
			return fmt.Errorf("scan event for unknown center %d", s.Center)
		}
		l.Scans[s.Center] = append(l.Scans[s.Center],
			ScanEvent{Worker: s.W, Task: s.Task, Arrive: s.Arrive, Expiry: s.Expiry})

	case "prov_log":
		var g struct {
			Stage string `json:"stage"`
			Shard int    `json:"shard"`
		}
		if err := json.Unmarshal(raw, &g); err != nil {
			return err
		}
		*cur = l.NewGameLog(g.Stage, g.Shard)

	case "prov_iter":
		if *cur == nil {
			return fmt.Errorf("iteration record precedes any prov_log header")
		}
		var it struct {
			Iter      int            `json:"iter"`
			Recipient model.CenterID `json:"recipient"`
			Accepted  bool           `json:"accepted"`
			W         model.WorkerID `json:"w"`
			Source    model.CenterID `json:"source"`
			RhoBefore float64        `json:"rho_before"`
			RhoAfter  float64        `json:"rho_after"`
			Phi       float64        `json:"phi"`
			Pruned    int            `json:"pruned"`
			Slack     float64        `json:"slack"`
			Replace   bool           `json:"replace"`
			Trials    []trialWire    `json:"trials"`
			Routes    []routeWire    `json:"routes"`
		}
		if err := json.Unmarshal(raw, &it); err != nil {
			return err
		}
		g := *cur
		rec := IterRec{
			Iter: it.Iter, Recipient: it.Recipient, Accepted: it.Accepted,
			Worker: it.W, Source: it.Source,
			RhoBefore: it.RhoBefore, RhoAfter: it.RhoAfter, Phi: it.Phi,
			Pruned: it.Pruned, Slack: it.Slack,
			TrialOff: len(g.trials), TrialN: len(it.Trials),
			RouteOff: len(g.routes), RouteN: len(it.Routes), Replace: it.Replace,
		}
		for _, tr := range it.Trials {
			g.trials = append(g.trials, TrialRec{Worker: tr.W, Assigned: tr.N, Mode: tr.M})
		}
		for _, rt := range it.Routes {
			g.routes = append(g.routes, RecordedRoute{
				Worker: rt.W, Tasks: g.taskArb.Copy(rt.T)})
		}
		g.Iters = append(g.Iters, rec)

	case "prov_shard":
		var s struct {
			Shards            int   `json:"shards"`
			ShardOf           []int `json:"shard_of"`
			ExchangeIters     int   `json:"exchange_iters"`
			ExchangeTransfers int   `json:"exchange_transfers"`
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		l.Shard = &ShardInfo{Shards: s.Shards, ShardOf: s.ShardOf,
			ExchangeIters: s.ExchangeIters, ExchangeTransfers: s.ExchangeTransfers}

	case "prov_final":
		var f struct {
			Assigned    int            `json:"assigned"`
			Unfairness  float64        `json:"unfairness"`
			Fingerprint uint64         `json:"fingerprint"`
			Transfers   []transferWire `json:"transfers"`
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			return err
		}
		fin := &Final{Assigned: f.Assigned, Unfairness: f.Unfairness,
			Fingerprint: f.Fingerprint,
			Transfers:   make([]model.Transfer, len(f.Transfers))}
		for i, tr := range f.Transfers {
			fin.Transfers[i] = model.Transfer{Src: tr.Src, Dst: tr.Dst, Worker: tr.W}
		}
		l.Final = fin

	case "prov_route":
		if l.Final == nil {
			return fmt.Errorf("final route precedes the prov_final record")
		}
		var rt struct {
			W      model.WorkerID `json:"w"`
			Center model.CenterID `json:"center"`
			T      []model.TaskID `json:"t"`
			Arrive []float64      `json:"arrive"`
			Expiry []float64      `json:"expiry"`
			Hours  float64        `json:"hours"`
		}
		if err := json.Unmarshal(raw, &rt); err != nil {
			return err
		}
		l.Final.Routes = append(l.Final.Routes, FinalRoute{
			Worker: rt.W, Center: rt.Center, Tasks: rt.T,
			Arrive: rt.Arrive, Expiry: rt.Expiry, Hours: rt.Hours})

	case "prov_cert":
		var c struct {
			Scope       string  `json:"scope"`
			Fingerprint uint64  `json:"fingerprint"`
			Phi         float64 `json:"phi"`
			Eps         float64 `json:"eps"`
			Equilibrium bool    `json:"equilibrium"`
		}
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		l.Cert = &Certificate{Scope: c.Scope, SolutionFP: c.Fingerprint,
			Phi: c.Phi, Eps: c.Eps, Equilibrium: c.Equilibrium}

	case "prov_witness":
		if l.Cert == nil {
			return fmt.Errorf("witness precedes the prov_cert record")
		}
		var w struct {
			Center     model.CenterID `json:"center"`
			TaskCount  int            `json:"task_count"`
			Assigned   int            `json:"assigned"`
			Rho        float64        `json:"rho"`
			Slack      float64        `json:"slack"`
			Candidates int            `json:"candidates"`
			Pruned     int            `json:"pruned"`
			BestRho    float64        `json:"best_rho"`
			BestWorker model.WorkerID `json:"best_worker"`
			Hash       uint64         `json:"hash"`
		}
		if err := json.Unmarshal(raw, &w); err != nil {
			return err
		}
		l.Cert.Centers = append(l.Cert.Centers, Witness{
			Center: w.Center, TaskCount: w.TaskCount, Assigned: w.Assigned,
			Rho: w.Rho, Slack: w.Slack, Candidates: w.Candidates, Pruned: w.Pruned,
			BestRho: w.BestRho, BestWorker: w.BestWorker, Hash: w.Hash})

	default:
		// Forward compatibility within the same schema version: a prov_*
		// record type this build does not know is an error — the schema
		// version should have been bumped.
		return fmt.Errorf("unknown provenance record type")
	}
	return nil
}
