package provenance

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"imtao/internal/model"
	"imtao/internal/obs"
)

// testLedger builds a small hand-rolled ledger exercising every record type.
func testLedger() *Ledger {
	l := NewLedger()
	l.Start(Meta{Method: "Seq-BDC", Engine: "sharded", Scope: ScopeFull,
		Centers: 2, Workers: 3, Tasks: 4, Seed: 42})
	l.Phase1 = []CenterPhase1{
		{Center: 0, Tasks: 3, Assigned: 2, Rho: 2.0 / 3,
			LeftWorkers: []model.WorkerID{2}, LeftTasks: []model.TaskID{3},
			Routes: []RecordedRoute{{Worker: 0, Tasks: []model.TaskID{0, 1}}}},
		{Center: 1, Tasks: 1, Assigned: 0, Rho: 0,
			Routes: nil},
	}
	l.Scans[0] = []ScanEvent{{Worker: 0, Task: 3, Arrive: 2.5, Expiry: 2.0}}
	g := l.NewGameLog(StageGame, 0)
	g.RecordIter(IterRec{Iter: 1, Recipient: 1, Accepted: true, Worker: 2,
		Source: 0, RhoBefore: 0, RhoAfter: 1, Phi: 5.0 / 3, Pruned: 1, Slack: 1.5,
		Replace: true},
		[]model.WorkerID{1, 2},
		[]int{0, 1},
		[]bool{true, false},
		true,
		[]model.Route{{Worker: 2, Center: 1, Tasks: []model.TaskID{3}}})
	l.RecordShard(ShardInfo{Shards: 2, ShardOf: []int{0, 1},
		ExchangeIters: 3, ExchangeTransfers: 1})
	l.Final = &Final{Assigned: 3, Unfairness: 0.25, Fingerprint: 0xdeadbeefcafef00d,
		Transfers: []model.Transfer{{Src: 0, Dst: 1, Worker: 2}},
		Routes: []FinalRoute{{Worker: 2, Center: 1, Tasks: []model.TaskID{3},
			Arrive: []float64{1.5}, Expiry: []float64{2}, Hours: 1.5}}}
	l.Cert = &Certificate{Scope: ScopeFull, SolutionFP: 0xdeadbeefcafef00d,
		Phi: 5.0 / 3, Eps: rhoEps, Equilibrium: true,
		Centers: []Witness{{Center: 0, TaskCount: 3, Assigned: 2, Rho: 2.0 / 3,
			Slack: 1.5, Candidates: 2, Pruned: 1, BestRho: 2.0 / 3,
			BestWorker: -1, Hash: 0x123456789abcdef0}}}
	return l
}

// idleLedger is a one-center run whose game considered no candidate and
// moved nothing: its iteration's trials and routes and its final transfers
// are empty, and its phase-1 leftovers are nil.
func idleLedger() *Ledger {
	l := NewLedger()
	l.Start(Meta{Method: "Seq-DC", Engine: "game", Scope: ScopeLeftover,
		Centers: 1, Workers: 1, Tasks: 2, Seed: 7})
	l.Phase1 = []CenterPhase1{{Center: 0, Tasks: 2, Assigned: 1, Rho: 0.5}}
	g := l.NewGameLog(StageGame, -1)
	g.Iters = []IterRec{{Iter: 1, Recipient: 0, Worker: -1, Source: -1,
		RhoBefore: 0.5, RhoAfter: 0.5, Phi: 0.5, Slack: -1}}
	l.Final = &Final{Assigned: 1, Fingerprint: 1}
	l.Cert = &Certificate{Scope: ScopeLeftover, SolutionFP: 1, Phi: 0.5, Eps: rhoEps}
	return l
}

// TestLedgerWriteGolden pins WriteTo's bytes for every prov_* record type,
// empty trial, route and transfer arrays included; t_ms is masked.
func TestLedgerWriteGolden(t *testing.T) {
	const want = `{"seq":1,"t_ms":0,"schema_version":2,"event":"prov_meta","method":"Seq-BDC","engine":"sharded","scope":"full","centers":2,"workers":3,"tasks":4,"seed":42}
{"seq":2,"t_ms":0,"schema_version":2,"event":"prov_phase1","center":0,"tasks":3,"assigned":2,"rho":0.6666666666666666,"left_workers":[2],"left_tasks":[3]}
{"seq":3,"t_ms":0,"schema_version":2,"event":"prov_p1route","center":0,"w":0,"t":[0,1]}
{"seq":4,"t_ms":0,"schema_version":2,"event":"prov_phase1","center":1,"tasks":1,"assigned":0,"rho":0,"left_workers":null,"left_tasks":null}
{"seq":5,"t_ms":0,"schema_version":2,"event":"prov_scan","center":0,"w":0,"task":3,"arrive":2.5,"expiry":2}
{"seq":6,"t_ms":0,"schema_version":2,"event":"prov_log","stage":"game","shard":0,"iters":1}
{"seq":7,"t_ms":0,"schema_version":2,"event":"prov_iter","iter":1,"recipient":1,"accepted":true,"w":2,"source":0,"rho_before":0,"rho_after":1,"phi":1.6666666666666667,"pruned":1,"slack":1.5,"replace":true,"trials":[{"w":1,"n":0,"m":3},{"w":2,"n":1,"m":2}],"routes":[{"w":2,"t":[3]}]}
{"seq":8,"t_ms":0,"schema_version":2,"event":"prov_shard","shards":2,"shard_of":[0,1],"exchange_iters":3,"exchange_transfers":1}
{"seq":9,"t_ms":0,"schema_version":2,"event":"prov_final","assigned":3,"unfairness":0.25,"fingerprint":16045690984503111693,"transfers":[{"src":0,"dst":1,"w":2}]}
{"seq":10,"t_ms":0,"schema_version":2,"event":"prov_route","w":2,"center":1,"t":[3],"arrive":[1.5],"expiry":[2],"hours":1.5}
{"seq":11,"t_ms":0,"schema_version":2,"event":"prov_cert","scope":"full","fingerprint":16045690984503111693,"phi":1.6666666666666667,"eps":1e-12,"equilibrium":true,"witnesses":1}
{"seq":12,"t_ms":0,"schema_version":2,"event":"prov_witness","center":0,"task_count":3,"assigned":2,"rho":0.6666666666666666,"slack":1.5,"candidates":2,"pruned":1,"best_rho":0.6666666666666666,"best_worker":-1,"hash":1311768467463790320}
{"seq":1,"t_ms":0,"schema_version":2,"event":"prov_meta","method":"Seq-DC","engine":"game","scope":"leftover","centers":1,"workers":1,"tasks":2,"seed":7}
{"seq":2,"t_ms":0,"schema_version":2,"event":"prov_phase1","center":0,"tasks":2,"assigned":1,"rho":0.5,"left_workers":null,"left_tasks":null}
{"seq":3,"t_ms":0,"schema_version":2,"event":"prov_log","stage":"game","shard":-1,"iters":1}
{"seq":4,"t_ms":0,"schema_version":2,"event":"prov_iter","iter":1,"recipient":0,"accepted":false,"w":-1,"source":-1,"rho_before":0.5,"rho_after":0.5,"phi":0.5,"pruned":0,"slack":-1,"replace":false,"trials":[],"routes":[]}
{"seq":5,"t_ms":0,"schema_version":2,"event":"prov_final","assigned":1,"unfairness":0,"fingerprint":1,"transfers":[]}
{"seq":6,"t_ms":0,"schema_version":2,"event":"prov_cert","scope":"leftover","fingerprint":1,"phi":0.5,"eps":1e-12,"equilibrium":false,"witnesses":0}
`
	tms := regexp.MustCompile(`"t_ms":[0-9.]+`)
	var got strings.Builder
	for _, l := range []*Ledger{testLedger(), idleLedger()} {
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got.WriteString(tms.ReplaceAllString(buf.String(), `"t_ms":0`))
	}
	if got.String() != want {
		t.Errorf("WriteTo lines differ from the golden.\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := testLedger()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != l.Meta {
		t.Errorf("meta %+v, want %+v", got.Meta, l.Meta)
	}
	if len(got.Phase1) != 2 || len(got.Phase1[0].Routes) != 1 ||
		got.Phase1[0].Routes[0].Worker != 0 || len(got.Phase1[0].Routes[0].Tasks) != 2 {
		t.Errorf("phase1 mismatch: %+v", got.Phase1)
	}
	if len(got.Scans[0]) != 1 || got.Scans[0][0] != l.Scans[0][0] {
		t.Errorf("scans mismatch: %+v", got.Scans)
	}
	if len(got.Logs) != 1 || got.Logs[0].Stage != StageGame || got.Logs[0].Shard != 0 ||
		len(got.Logs[0].Iters) != 1 {
		t.Fatalf("logs mismatch: %+v", got.Logs)
	}
	gi, wi := got.Logs[0].Iters[0], l.Logs[0].Iters[0]
	if gi != wi {
		t.Errorf("iter %+v, want %+v", gi, wi)
	}
	if gt, wt := got.Logs[0].Trials(&gi), l.Logs[0].Trials(&wi); !slices.Equal(gt, wt) ||
		wt[0].Mode != TrialBounded {
		t.Errorf("trials %+v, want %+v", gt, wt)
	}
	if got.Shard == nil {
		t.Fatal("shard section lost")
	}
	if got.Shard.Shards != 2 || got.Shard.ExchangeIters != 3 || len(got.Shard.ShardOf) != 2 {
		t.Errorf("shard mismatch: %+v", got.Shard)
	}
	if got.Final.Fingerprint != l.Final.Fingerprint || len(got.Final.Transfers) != 1 ||
		got.Final.Transfers[0] != l.Final.Transfers[0] || len(got.Final.Routes) != 1 ||
		got.Final.Routes[0].Hours != 1.5 {
		t.Errorf("final mismatch: %+v", got.Final)
	}
	if got.Cert == nil || got.Cert.SolutionFP != l.Cert.SolutionFP ||
		len(got.Cert.Centers) != 1 || got.Cert.Centers[0] != l.Cert.Centers[0] {
		t.Errorf("cert mismatch: %+v", got.Cert)
	}
}

// TestReadLedgerRejectsSchemaMismatch: satellite 2 — a reader built against
// this schema refuses both older stamped versions and the historical
// unversioned (v1) stream.
func TestReadLedgerRejectsSchemaMismatch(t *testing.T) {
	for name, line := range map[string]string{
		"older":       `{"seq":1,"t_ms":0.0,"schema_version":1,"event":"prov_meta","method":"Seq-BDC"}`,
		"newer":       fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%d,"event":"prov_meta","method":"Seq-BDC"}`, obs.SchemaVersion+1),
		"unversioned": `{"seq":1,"t_ms":0.0,"event":"prov_meta","method":"Seq-BDC"}`,
	} {
		if _, err := ReadLedger(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s stream accepted, want schema rejection", name)
		} else if !strings.Contains(err.Error(), "schema_version") {
			t.Errorf("%s stream: error %q does not mention schema_version", name, err)
		}
	}
}

// TestReadLedgerDecodesRetiredShardKeys: a prov_shard record written while
// the ledger still carried the partition's cut (boundary_workers,
// exclusive_workers, empty_cut, components) decodes under the same schema
// version; the retired keys are skipped.
func TestReadLedgerDecodesRetiredShardKeys(t *testing.T) {
	line := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%d,"event":"prov_shard","shards":2,"shard_of":[0,1],`+
		`"boundary_workers":1,"exclusive_workers":2,"empty_cut":false,"components":1,"exchange_iters":3,"exchange_transfers":1}`,
		obs.SchemaVersion)
	l, err := ReadLedger(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s := l.Shard; s == nil || s.Shards != 2 || len(s.ShardOf) != 2 || s.ExchangeIters != 3 || s.ExchangeTransfers != 1 {
		t.Fatalf("shard section = %+v", l.Shard)
	}
}

// TestReadLedgerSkipsForeignEvents: non-provenance events sharing the stream
// (a run trace, runtime samples) are ignored; unknown prov_* types are not.
func TestReadLedgerSkipsForeignEvents(t *testing.T) {
	stream := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%[1]d,"event":"run_start","method":"Seq-BDC"}
{"seq":2,"t_ms":0.1,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"game","scope":"full","centers":1,"workers":1,"tasks":1,"seed":9}
{"seq":3,"t_ms":0.2,"schema_version":%[1]d,"event":"game_iter","iter":1}
`, obs.SchemaVersion)
	l, err := ReadLedger(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.Seed != 9 || l.Meta.Centers != 1 {
		t.Errorf("meta not parsed around foreign events: %+v", l.Meta)
	}
	bad := fmt.Sprintf(`{"seq":1,"t_ms":0.0,"schema_version":%d,"event":"prov_wat"}`, obs.SchemaVersion)
	if _, err := ReadLedger(strings.NewReader(bad + "\n")); err == nil {
		t.Error("unknown prov_* record type accepted")
	}
}

// TestMalformedLedgerErrors: a ledger whose center count or center IDs
// fall outside the run's centers (a second prov_meta could shrink them),
// or whose final route's cost arrays do not match its tasks, is rejected
// with an error by ReadLedger or Replay; neither they nor the explain
// queries index with it.
func TestMalformedLedgerErrors(t *testing.T) {
	const head = `{"seq":1,"t_ms":0,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"game","scope":"full","centers":1,"workers":1,"tasks":1,"seed":1}
{"seq":2,"t_ms":0,"schema_version":%[1]d,"event":"prov_phase1","center":0,"tasks":1,"assigned":0,"rho":0,"left_workers":[0],"left_tasks":[0]}
`
	for name, tc := range map[string]struct{ stream, want string }{
		"meta centers -1": {`{"seq":1,"t_ms":0,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"game","scope":"full","centers":-1,"workers":1,"tasks":1,"seed":1}`,
			"center count"},
		"second meta": {head + `{"seq":3,"t_ms":0,"schema_version":%[1]d,"event":"prov_meta","method":"Seq-BDC","engine":"game","scope":"full","centers":0,"workers":1,"tasks":1,"seed":1}`,
			"second prov_meta"},
		"p1route center -1": {head + `{"seq":3,"t_ms":0,"schema_version":%[1]d,"event":"prov_p1route","center":-1,"w":0,"t":[0]}`,
			"center -1"},
		"iter recipient 7": {head + `{"seq":3,"t_ms":0,"schema_version":%[1]d,"event":"prov_log","stage":"game","shard":-1,"iters":1}
{"seq":4,"t_ms":0,"schema_version":%[1]d,"event":"prov_iter","iter":1,"recipient":7,"accepted":true,"w":0,"source":0,"rho_before":0,"rho_after":1,"phi":1,"pruned":0,"slack":1,"replace":true,"trials":[{"w":0,"n":1,"m":1}],"routes":[{"w":0,"t":[0]}]}`,
			"recipient 7"},
		"route without arrivals": {head + `{"seq":3,"t_ms":0,"schema_version":%[1]d,"event":"prov_p1route","center":0,"w":0,"t":[0]}
{"seq":4,"t_ms":0,"schema_version":%[1]d,"event":"prov_final","assigned":1,"unfairness":0,"fingerprint":1,"transfers":[]}
{"seq":5,"t_ms":0,"schema_version":%[1]d,"event":"prov_route","w":0,"center":0,"t":[0],"arrive":[],"expiry":[],"hours":1}`,
			"0 arrivals"},
	} {
		t.Run(name, func(t *testing.T) {
			l, err := ReadLedger(strings.NewReader(fmt.Sprintf(tc.stream+"\n", obs.SchemaVersion)))
			if err == nil {
				_, err = Replay(l)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
