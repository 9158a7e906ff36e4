package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/prover"
)

// TestRunSmokeMesh drives a shrunken smoke profile end to end — real
// listeners, WAL-backed directories, gossip, CRL follower — and
// asserts the harness's own contract: zero correctness violations,
// every flow measured, and a BENCH_8-schema report that round-trips.
// This is the test CI's loadgen-smoke job leans on; the full smoke
// profile runs as the sf-loadgen binary in the same job.
func TestRunSmokeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full mesh")
	}
	cfg := Smoke()
	cfg.Principals = 8
	cfg.Orgs = 2
	cfg.WarmOps = 60
	cfg.PublishOps = 3
	cfg.Revocations = 2
	cfg.Concurrency = 4
	cfg.ChurnWorkers = 1
	cfg.ChurnOps = 3
	cfg.GossipInterval = 100 * time.Millisecond

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("correctness violations:\n%s", res.Summary())
	}
	for _, name := range []string{FlowCold, FlowWarm, FlowPublish, FlowRevoke} {
		f, ok := res.Flows[name]
		if !ok || f.Count == 0 {
			t.Fatalf("flow %s not measured (count=%d)", name, f.Count)
		}
		if f.ReqPerSec <= 0 || f.P50 <= 0 || f.P99 < f.P50 {
			t.Fatalf("flow %s has implausible numbers: %+v", name, f)
		}
	}
	if res.Fingerprint == "" {
		t.Fatal("no graph fingerprint")
	}
	if res.ProverStats["remote_queries"] == 0 {
		t.Fatal("cold flow issued no directory queries — discovery was short-circuited")
	}
	if res.FollowerStats["pulled"] == 0 {
		t.Fatal("database domain pulled no CRLs; revoke flow cannot have exercised the full pipeline")
	}

	// The emitted report must parse back under the shared trajectory
	// schema with all four flows present.
	out := filepath.Join(t.TempDir(), "BENCH_8.json")
	if err := res.ToBench(8).WriteFile(out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if rep.Schema != bench.Schema || rep.PR != 8 {
		t.Fatalf("schema/pr = %q/%d", rep.Schema, rep.PR)
	}
	for _, name := range []string{FlowCold, FlowWarm, FlowPublish, FlowRevoke} {
		e, ok := rep.Benchmarks[name]
		if !ok {
			t.Fatalf("report missing %s", name)
		}
		if e.ReqPerSec <= 0 || e.P99Ns <= 0 {
			t.Fatalf("report entry %s empty: %+v", name, e)
		}
	}
	if rep.Counters["violations"] != 0 {
		t.Fatalf("violations counter = %v", rep.Counters["violations"])
	}
}

// TestRunWideOrgMesh gives the database more orgs than the prover's
// per-admit query budget (DefaultRemoteFanout): discovery that walked
// every org the database delegates to would run out of budget before
// reaching a principal's grant and deny it. Every principal must be
// admitted cold with zero violations.
func TestRunWideOrgMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full mesh")
	}
	cfg := Smoke()
	cfg.Gateways = 1
	cfg.Principals = 100
	cfg.Orgs = 75
	cfg.WarmOps = 20
	cfg.PublishOps = 1
	cfg.Revocations = 1
	cfg.Concurrency = 2
	cfg.ChurnWorkers = 0
	cfg.GossipInterval = 100 * time.Millisecond
	if cfg.Orgs <= prover.DefaultRemoteFanout {
		t.Fatalf("orgs %d must exceed the fanout budget %d", cfg.Orgs, prover.DefaultRemoteFanout)
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("correctness violations:\n%s", res.Summary())
	}
	if n := res.Flows[FlowCold].Count; n != uint64(cfg.Principals) {
		t.Fatalf("admitted %d of %d principals cold", n, cfg.Principals)
	}
	t.Logf("remote queries: %d for %d cold admits", res.ProverStats["remote_queries"], cfg.Principals)
}
