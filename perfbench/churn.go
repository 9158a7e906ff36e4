package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

const (
	// probeDeadline bounds how long a revocation may take to be
	// rejected, or a publish to become visible at the peer: twenty
	// gossip intervals.
	probeDeadline = 20 * gossip
	// probePoll is the watcher's polling period.
	probePoll = 5 * time.Millisecond
	// victimPoll is how often one revoked victim is admitted to see
	// whether it is rejected yet. Those admits compete with the admit
	// client, so they are kept few and at a fixed rate: at probePoll,
	// their number (and the load) would follow revoke→rejected time.
	victimPoll = 25 * time.Millisecond
	// rejectHolds is how many further polls must stay rejected after a
	// revoked principal's first rejection.
	rejectHolds = 3
)

// churn is warm-churn's open-loop writer and the watcher that
// resolves its probes.
type churn struct {
	m       *mesh
	rep     *report
	victims []*loadgen.Synthetic
	seed    int64

	mu        sync.Mutex
	lateness  []float64 // ms each writer op started after it was due
	visible   []float64 // publish→visible at the peer, ms from due time
	rejected  []float64 // revoke→rejected, ms from due time
	pendPub   []pubProbe
	pendRev   []revProbe
	admits    int64 // victim admits sent by poll
	writerErr error
}

type pubProbe struct {
	due  time.Time
	hash []byte
	peer int
}

type revProbe struct {
	due    time.Time
	next   time.Time // when poll admits the victim again
	p      *loadgen.Synthetic
	denied time.Time // zero until the first rejection
	holds  int
}

// warmChurn: the warm mesh again, one closed-loop admit client, and an
// open-loop writer publishing and revoking throwaway certificates and
// probing revoke→rejected and publish→visible.
func warmChurn(r *run, rep *report) (*loadgen.Graph, error) {
	g, err := world(r.seed, warmPrincipals+churnVictims, scheduleLen)
	if err != nil {
		return nil, err
	}
	m, err := r.meshSetup(rep, g, func(m *mesh) error { return warmAll(m, g.Principals) })
	if err != nil {
		return nil, err
	}
	c := &churn{m: m, rep: rep, victims: g.Principals[warmPrincipals:], seed: r.seed}
	l := r.newLoad(m, rep, 10, 2)
	w, err := openWindow(m.daemons())
	if err != nil {
		return nil, err
	}
	until := time.Now().Add(r.seconds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.write(until)
	}()
	var next int
	var nextMu sync.Mutex
	l.loop(1, until, func() (*loadgen.Synthetic, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		for {
			i := g.Schedule[next%len(g.Schedule)]
			next++
			if i < warmPrincipals { // victims are never scheduled
				return g.Principals[i], true
			}
		}
	})
	wg.Wait()
	if err := w.close(); err != nil {
		return nil, err
	}
	// The writer's victim admits ran inside the window, so their
	// daemon CPU did too: they are ops like the client's.
	l.probeOps = c.admits
	c.watch()
	if c.writerErr != nil {
		return nil, c.writerErr
	}
	if len(c.rejected) == 0 || len(c.visible) == 0 {
		rep.violate("no probe resolved: %d rejected, %d visible", len(c.rejected), len(c.visible))
	}
	if err := r.finishMesh(rep, m, l, w); err != nil {
		return nil, err
	}
	if r.trace {
		rep.set("revoke_reject_p50_ms", "ms", median(c.rejected))
		rep.set("publish_visible_p50_ms", "ms", median(c.visible))
		rep.set("gen.lateness_ms_p99", "ms", quantile(c.lateness, 0.99))
	}
	return g, nil
}

// write sends churnRate operations per second on a fixed schedule,
// whatever the system's speed, cycling through: publish a throwaway
// certificate, revoke it at the other directory, publish a probe
// certificate, revoke a victim's grant at the directory that is not
// its home. The watcher runs between the writes.
func (c *churn) write(until time.Time) {
	start := time.Now()
	var last *cert.Cert
	victim := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / churnRate)
		if !due.Before(until) {
			return
		}
		for time.Now().Before(due) {
			c.poll()
			if d := time.Until(due); d > 0 {
				time.Sleep(min(d, probePoll))
			}
		}
		c.mu.Lock()
		c.lateness = append(c.lateness, ms(time.Since(due)))
		c.mu.Unlock()
		dir := (k / 4) % 2
		var err error
		switch k % 4 {
		case 0:
			if last, err = churnCert(c.m.g, fmt.Sprintf("perfbench-%d-churn-%d", c.seed, k)); err == nil {
				err = c.m.dirCli[dir].Publish(last)
			}
		case 1:
			rl := cert.NewRevocationList(c.m.g.ChurnKey, c.m.g.Validity, last.Hash())
			err = c.m.dirCli[1-dir].PushCRL(rl)
		case 2:
			var pc *cert.Cert
			if pc, err = churnCert(c.m.g, fmt.Sprintf("perfbench-%d-probe-%d", c.seed, k)); err == nil {
				if err = c.m.dirCli[dir].Publish(pc); err == nil {
					c.mu.Lock()
					c.pendPub = append(c.pendPub, pubProbe{due: due, hash: pc.Hash(), peer: 1 - dir})
					c.mu.Unlock()
				}
			}
		case 3:
			if victim >= len(c.victims) {
				break // a run longer than churnVictims seconds revokes no more
			}
			p := c.victims[victim]
			victim++
			home := int(p.Grant.Hash()[0]) % 2
			rl := cert.NewRevocationList(c.m.g.OrgKeys[p.Org], c.m.g.Validity, p.Grant.Hash())
			if err = c.m.dirCli[1-home].PushCRL(rl); err == nil {
				c.mu.Lock()
				c.pendRev = append(c.pendRev, revProbe{due: due, next: due, p: p})
				c.mu.Unlock()
			}
		}
		if err != nil {
			c.mu.Lock()
			c.writerErr = fmt.Errorf("writer op %d: %w", k, err)
			c.mu.Unlock()
			return
		}
	}
}

// watch polls until every probe is resolved or past its deadline.
func (c *churn) watch() {
	for {
		c.mu.Lock()
		n := len(c.pendPub) + len(c.pendRev)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		c.poll()
		time.Sleep(probePoll)
	}
}

// poll checks each pending probe once. A published probe resolves
// when the peer directory serves it. A revoked victim resolves once
// its admit is rejected and stays rejected for rejectHolds more polls,
// and the gateway's audit trail shows no admit citing the revoked
// grant after the first rejection.
func (c *churn) poll() {
	c.mu.Lock()
	pubs, revs := c.pendPub, c.pendRev
	c.pendPub, c.pendRev = nil, nil
	c.mu.Unlock()

	var keepPub []pubProbe
	for _, p := range pubs {
		got, err := c.m.dirCli[p.peer].Fetch([][]byte{p.hash})
		switch {
		case err == nil && len(got) == 1:
			c.rep.attempt()
			c.record(&c.visible, ms(time.Since(p.due)))
		case time.Since(p.due) > probeDeadline:
			c.rep.attempt()
			c.violate("publish not visible at the peer within %s (err %v)", probeDeadline, err)
		default:
			keepPub = append(keepPub, p)
		}
	}
	var keepRev []revProbe
	for _, v := range revs {
		if time.Now().Before(v.next) {
			keepRev = append(keepRev, v)
			continue
		}
		v.next = time.Now().Add(victimPoll)
		status, _, err := c.m.admit(v.p, "")
		c.mu.Lock()
		c.admits++
		c.mu.Unlock()
		switch {
		case status == 0:
			c.rep.attempt()
			c.violate("revoked %s: admit failed: %v", v.p.Owner, err)
			continue
		case status == http.StatusOK && !v.denied.IsZero():
			c.rep.attempt()
			c.violate("revoked %s: admitted again after its first rejection", v.p.Owner)
			continue
		case status != http.StatusOK && v.denied.IsZero():
			v.denied = time.Now()
			c.record(&c.rejected, ms(v.denied.Sub(v.due)))
		case status != http.StatusOK:
			v.holds++
		case time.Since(v.due) > probeDeadline:
			c.rep.attempt()
			c.violate("revoked %s: still admitted %s after revocation", v.p.Owner, probeDeadline)
			continue
		}
		if v.holds < rejectHolds {
			keepRev = append(keepRev, v)
			continue
		}
		c.rep.attempt()
		if err := c.auditClean(v); err != nil {
			c.violate("%v", err)
		}
	}
	c.mu.Lock()
	c.pendPub = append(c.pendPub, keepPub...)
	c.pendRev = append(c.pendRev, keepRev...)
	c.mu.Unlock()
}

// auditClean checks the gateway's decision trail: no admit of v after
// its first rejection may cite the revoked grant.
func (c *churn) auditClean(v revProbe) error {
	q := url.Values{"verdict": {"admit"}, "layer": {"gateway"}, "principal": {v.p.Prin.String()}}
	resp, err := scrapeClient.Get("http://" + c.m.gw.admin + "/debug/decisions?" + q.Encode())
	if err != nil {
		return fmt.Errorf("audit %s: %w", v.p.Owner, err)
	}
	defer resp.Body.Close()
	var out struct {
		Decisions []obs.Decision `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("audit %s: %w", v.p.Owner, err)
	}
	grant := grantHash(v.p.Grant)
	for _, d := range out.Decisions {
		if !d.Time.After(v.denied) {
			continue
		}
		for _, h := range d.CertHashes {
			if h == grant {
				return fmt.Errorf("audit: %s admitted citing its revoked grant after rejection (epoch %d)", v.p.Owner, d.Epoch)
			}
		}
	}
	return nil
}

func (c *churn) record(to *[]float64, v float64) {
	c.mu.Lock()
	*to = append(*to, v)
	c.mu.Unlock()
}

func (c *churn) violate(format string, args ...any) { c.rep.violate(format, args...) }
