package main

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

const (
	// gossip is every daemon's gossip and CRL-pull interval.
	gossip = 250 * time.Millisecond
	// untracedSample is the -trace-sample rate that keeps head sampling
	// effectively off: the daemons record no fresh trace of their own,
	// only the ones a generator request hands them.
	untracedSample = "1000000000"
	// bootTimeout bounds how long a daemon may take to log readiness.
	bootTimeout = 30 * time.Second
)

// run is one benchmark invocation: where the binaries are, where the
// daemons keep their data, and every process started so far.
type run struct {
	bin, work string
	seed      int64
	seconds   time.Duration
	trace     bool

	mu                  sync.Mutex
	procs               []*daemon
	seq                 int
	nextPort, portLimit int // freePort's cursor and the ephemeral range's start
}

func (r *run) start(name, addr, admin string, args ...string) (*daemon, error) {
	r.mu.Lock()
	r.seq++
	logPath := filepath.Join(r.work, fmt.Sprintf("%03d-%s.log", r.seq, name))
	r.mu.Unlock()
	d, err := startDaemon(name, filepath.Join(r.bin, name), logPath, addr, admin, args...)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.procs = append(r.procs, d)
	r.mu.Unlock()
	return d, nil
}

// stopAll stops every daemon still running; it is safe to call twice.
func (r *run) stopAll() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range procs {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// stopOne stops d and forgets it.
func (r *run) stopOne(d *daemon) {
	r.mu.Lock()
	for i, p := range r.procs {
		if p == d {
			r.procs = append(r.procs[:i], r.procs[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	d.stop()
}

func (r *run) dir(name string) (string, error) {
	r.mu.Lock()
	r.seq++
	p := filepath.Join(r.work, fmt.Sprintf("%03d-%s", r.seq, name))
	r.mu.Unlock()
	return p, os.MkdirAll(p, 0o755)
}

func (r *run) writeKey(name string, k *sfkey.PrivateKey) (string, error) {
	p := filepath.Join(r.work, name+".key")
	return p, os.WriteFile(p, []byte(base64.StdEncoding.EncodeToString(k.Bytes())), 0o600)
}

// worldOrgs is the number of organizations between the database and
// the principals: loadgen's standard shape. It stays below the
// prover's per-admit remote query budget (prover.DefaultRemoteFanout,
// 32); with 75 orgs, cold discovery spent the budget on the org
// frontier and admits failed.
const worldOrgs = 24

// world generates the seeded delegation world: one gateway, two
// directories, principals with zipf org fan-out, and a zipf(1.3)
// admit schedule. Certificate validity is anchored to the current
// hour, so one seed gives byte-identical inputs within the hour and
// certificates the daemons' wall clocks accept.
func world(seed int64, principals, scheduleLen int) (*loadgen.Graph, error) {
	return loadgen.BuildGraph(loadgen.Config{
		Profile: "perfbench", Gateways: 1, Directories: 2,
		Principals: principals, Orgs: worldOrgs, Seed: seed, ZipfS: 1.3,
		WarmOps: scheduleLen, Concurrency: 2, GossipInterval: gossip,
		RevokeRounds: 1, MintTTL: time.Hour,
		Now: time.Now().Truncate(time.Hour),
	})
}

// startDir starts one WAL-backed sf-certd and waits until it serves.
func (r *run) startDir(addr, admin, sample string, extra ...string) (*daemon, error) {
	data, err := r.dir("certd-data")
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", addr, "-admin-addr", admin, "-data-dir", data,
		"-fsync", "interval", "-gossip", gossip.String(), "-trace-sample", sample,
	}, extra...)
	d, err := r.start("sf-certd", addr, admin, args...)
	if err != nil {
		return nil, err
	}
	if _, err := d.waitLog("directory listening on", 0, bootTimeout); err != nil {
		return nil, err
	}
	return d, nil
}

// mesh is the system under test for the admit workloads: two
// directories gossiping with each other, one database following their
// CRLs, and one gateway discovering chains from directory 0.
type mesh struct {
	g      *loadgen.Graph
	dirs   [2]*daemon
	dirCli [2]*certdir.Client
	db, gw *daemon
	gwURL  string
	http   *http.Client // the generator's gateway connections
}

func (m *mesh) daemons() []*daemon { return []*daemon{m.dirs[0], m.dirs[1], m.db, m.gw} }

// newHTTPClient returns a keep-alive client limited to two
// connections per host: the generator's two client connections.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

// startMesh boots the four daemons, publishes every graph certificate
// at its home directory, and waits until both directories hold all of
// them.
func (r *run) startMesh(g *loadgen.Graph) (*mesh, error) {
	m := &mesh{g: g}
	var addrs [8]string
	for i := range addrs {
		a, err := r.freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	dirURL := [2]string{"http://" + addrs[0], "http://" + addrs[2]}
	for i := 0; i < 2; i++ {
		d, err := r.startDir(addrs[2*i], addrs[2*i+1], untracedSample, "-peer", dirURL[1-i])
		if err != nil {
			return nil, err
		}
		m.dirs[i] = d
		m.dirCli[i] = certdir.NewClient(dirURL[i])
		m.dirCli[i].HTTP = newHTTPClient()
	}

	dbKey, err := r.writeKey("db", g.DBKey)
	if err != nil {
		return nil, err
	}
	m.db, err = r.start("sf-dbserver", addrs[4], addrs[5],
		"-key", dbKey, "-addr", addrs[4], "-admin-addr", addrs[5],
		"-crl-follow", dirURL[0]+","+dirURL[1], "-crl-follow-every", gossip.String(),
		"-trace-sample", untracedSample)
	if err != nil {
		return nil, err
	}
	// Readiness is the daemon's own line, logged once the secure-channel
	// listener is serving: a bare TCP connect-and-close would kill it
	// (see NOTES.md).
	if _, err := m.db.waitLog("(issuer", 0, bootTimeout); err != nil {
		return nil, err
	}

	gwKey, err := r.writeKey("gw", g.GatewayKeys[0])
	if err != nil {
		return nil, err
	}
	m.gw, err = r.start("sf-gateway", addrs[6], addrs[7],
		"-key", gwKey, "-db", addrs[4], "-db-issuer", string(g.DBIssuer.Sexp().Advanced()),
		"-addr", addrs[6], "-admin-addr", addrs[7], "-certdir", dirURL[0],
		"-trace-sample", untracedSample)
	if err != nil {
		return nil, err
	}
	if _, err := m.gw.waitLog("bridging", 0, bootTimeout); err != nil {
		return nil, err
	}
	m.gwURL = "http://" + addrs[6]
	m.http = newHTTPClient()

	if err := m.publish(g.Certs); err != nil {
		return nil, err
	}
	return m, nil
}

// publish sends certs through the wire publish path, two at a time,
// each at its home directory, and waits until both directories hold
// every one of them.
func (m *mesh) publish(certs []*cert.Cert) error {
	before, err := m.stored()
	if err != nil {
		return err
	}
	if err := publishAll(certs, func(c *cert.Cert) *certdir.Client {
		return m.dirCli[int(c.Hash()[0])%2]
	}); err != nil {
		return err
	}
	want := [2]float64{before.stored[0] + float64(len(certs)), before.stored[1] + float64(len(certs))}
	// Converged means both directories hold every certificate and the
	// push traffic it caused has drained: re-offered duplicates still
	// in flight would otherwise land in the timed part.
	deadline := time.Now().Add(60 * time.Second)
	var last dirState
	for {
		got, err := m.stored()
		if err != nil {
			return err
		}
		if got.stored[0] >= want[0] && got.stored[1] >= want[1] && got.writes == last.writes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("directories hold %v certificates, want %v", got.stored, want)
		}
		last = got
		time.Sleep(50 * time.Millisecond)
	}
}

// dirState is what convergence watches: each directory's stored count
// and the publishes and pushes both have handled so far.
type dirState struct {
	stored [2]float64
	writes float64
}

func (m *mesh) stored() (dirState, error) {
	var out dirState
	for i, d := range m.dirs {
		s, err := d.scrape()
		if err != nil {
			return out, err
		}
		out.stored[i] = s["sf_certdir_stored"]
		out.writes += s["sf_publish_ack_seconds_count"] + s["sf_certdir_gossip_pushes_total"]
	}
	return out, nil
}

// publishAll publishes certs from two workers.
func publishAll(certs []*cert.Cert, at func(*cert.Cert) *certdir.Client) error {
	var next atomic.Int64
	var failed atomic.Int64
	var first atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(certs) {
					return
				}
				if err := at(certs[i]).Publish(certs[i]); err != nil {
					failed.Add(1)
					first.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d publishes failed: %v", n, len(certs), first.Load())
	}
	return nil
}

// admit sends one signed request for p through the gateway and
// returns its status and client-observed latency, from HTTP send to
// the end of the response body; signing the request is not timed. A
// non-empty traceHdr is sent as the Sf-Trace header.
func (m *mesh) admit(p *loadgen.Synthetic, traceHdr string) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, m.gwURL+"/mail?owner="+p.Owner+"&folder=inbox", nil)
	if err != nil {
		return 0, 0, err
	}
	reqPrin, _, err := httpauth.RequestPrincipal(req)
	if err != nil {
		return 0, 0, err
	}
	now := time.Now()
	rp, err := cert.Delegate(p.Key, reqPrin, p.Prin, emaildb.OwnerTag(p.Owner),
		core.Between(now.Add(-time.Minute), now.Add(time.Hour)))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Authorization", httpauth.SchemeProof+` request-proof=`+string(rp.Sexp().Transport()))
	if traceHdr != "" {
		req.Header.Set(obs.TraceHeader, traceHdr)
	}
	t0 := time.Now()
	resp, err := m.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return resp.StatusCode, lat, fmt.Errorf("%s", strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, lat, nil
}

// grantHash is the hex hash the gateway's audit records use for c.
func grantHash(c *cert.Cert) string {
	h := c.Sexp().Hash()
	return fmt.Sprintf("%x", h[:])
}

// churnCert mints a throwaway certificate under the graph's churn
// key: it is in no principal's chain, so publishing and revoking it
// exercises the write paths without changing any admit's verdict.
func churnCert(g *loadgen.Graph, label string) (*cert.Cert, error) {
	subj := principal.KeyOf(sfkey.FromSeed([]byte(label)).Public())
	return cert.Delegate(g.ChurnKey, subj, principal.KeyOf(g.ChurnKey.Public()), emaildb.OwnerTag("churn"), g.Validity)
}
