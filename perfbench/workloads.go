package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// setups is how many times each run sets its system up; setup_s is
// the median.
const setups = 5

// Workload shapes. Each is sized so the timed part cannot run out of
// work on this class of machine (see NOTES.md for the numbers).
const (
	coldPrincipals  = 1000 // cold-discovery: each admitted at most once
	warmPrincipals  = 100  // warm-zipf and warm-churn: live, zipf-targeted
	churnVictims    = 24   // warm-churn: revocation probe targets, one per second
	churnRate       = 4    // warm-churn writer ops per second
	bootPrincipals  = 5000 // dir-bootstrap: 2 certs each plus org roots
	scheduleLen     = 200000
	traceRootBudget = 1500 // daemon spans a traced run may record
)

func (r *run) closeMesh(m *mesh) {
	var wg sync.WaitGroup
	for _, d := range m.daemons() {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			r.stopOne(d)
		}(d)
	}
	wg.Wait()
}

// meshSetup boots and populates the mesh setups times (warming it
// with warm when non-nil) and keeps the last one.
func (r *run) meshSetup(rep *report, g *loadgen.Graph, warm func(*mesh) error) (*mesh, error) {
	return setupRepeated(rep, setups, func() (*mesh, error) {
		m, err := r.startMesh(g)
		if err != nil {
			return nil, err
		}
		if warm != nil {
			if err := warm(m); err != nil {
				return nil, err
			}
		}
		return m, nil
	}, r.closeMesh)
}

// newLoad returns the admit load; traced runs trace one admit in
// every traceEvery, at most traceCap of them, where spansPerAdmit is
// the most spans one admit leaves in any single daemon.
func (r *run) newLoad(m *mesh, rep *report, traceEvery, spansPerAdmit int64) *admitLoad {
	l := &admitLoad{m: m, rep: rep}
	if r.trace {
		l.traceEvery = traceEvery
		l.traceCap = traceRootBudget / spansPerAdmit
	}
	return l
}

// warmAll admits every principal once with two clients: the untimed
// warm-up of the warm workloads.
func warmAll(m *mesh, ps []*loadgen.Synthetic) error {
	warmRep := &report{}
	l := &admitLoad{m: m, rep: warmRep}
	var next atomic.Int64
	l.loop(2, time.Now().Add(time.Hour), func() (*loadgen.Synthetic, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(ps) {
			return nil, false
		}
		return ps[i], true
	})
	if warmRep.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d admits failed: %v", warmRep.failed, len(ps), warmRep.violations)
	}
	return nil
}

// coldDiscovery: a freshly started, converged mesh; two closed-loop
// clients admit principals in shuffled order, each at most once, so
// every admit needs remote chain discovery and a cold chain check.
func coldDiscovery(r *run, rep *report) (*loadgen.Graph, error) {
	g, err := world(r.seed, coldPrincipals, 1)
	if err != nil {
		return nil, err
	}
	m, err := r.meshSetup(rep, g, nil)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(r.seed)).Perm(len(g.Principals))
	l := r.newLoad(m, rep, 8, 32)
	w, err := openWindow(m.daemons())
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	l.loop(2, time.Now().Add(r.seconds), func() (*loadgen.Synthetic, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(order) {
			return nil, false
		}
		return g.Principals[order[i]], true
	})
	if err := w.close(); err != nil {
		return nil, err
	}
	ops := l.ops()
	// Gate: the gateway classified every admit of the timed part cold.
	if cold := w.delta[iGW]["sf_admit_cold_seconds_count"]; cold != float64(ops) {
		rep.violate("gateway classified %v of %d admits cold", cold, ops)
	}
	return g, r.finishMesh(rep, m, l, w)
}

// warmZipf: every principal admitted once in set-up; then two
// closed-loop clients follow the zipf(1.3) schedule with no writes.
func warmZipf(r *run, rep *report) (*loadgen.Graph, error) {
	g, err := world(r.seed, warmPrincipals, scheduleLen)
	if err != nil {
		return nil, err
	}
	m, err := r.meshSetup(rep, g, func(m *mesh) error { return warmAll(m, g.Principals) })
	if err != nil {
		return nil, err
	}
	l := r.newLoad(m, rep, 10, 2)
	w, err := openWindow(m.daemons())
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	l.loop(2, time.Now().Add(r.seconds), func() (*loadgen.Synthetic, bool) {
		i := int(next.Add(1)-1) % len(g.Schedule)
		return g.Principals[g.Schedule[i]], true
	})
	if err := w.close(); err != nil {
		return nil, err
	}
	// Gate: a warm mesh needs no chain discovery.
	if q := w.delta[iGW]["sf_prover_remote_queries_total"]; q != 0 {
		rep.violate("warm admits made %v remote queries", q)
	}
	return g, r.finishMesh(rep, m, l, w)
}

// finishMesh reports a mesh workload's metrics: end to end from the
// untraced admits and the window, per layer from the window's metric
// deltas and the collected traces.
func (r *run) finishMesh(rep *report, m *mesh, l *admitLoad, w *window) error {
	ops := float64(l.ops())
	rep.set("latency_p50_ms", "ms", median(l.lat))
	rep.set("cpu_ms_per_op", "ms", ratio(w.cpuMS(iDirA, iDirB, iDB, iGW), ops))
	rep.set("rss_mb", "MB", w.rssMB())
	if !r.trace {
		return nil
	}
	rep.set("ops_per_s", "1/s", ratio(ops, w.elapsed.Seconds()))
	rep.set("admit_p99_ms", "ms", quantile(l.lat, 0.99))
	meshLayers(rep, w, ops)
	return traceLayers(rep, m.daemons(), l)
}
