package prover

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// fakeSource is an in-memory RemoteSource for tests; queries arrive
// concurrently, so the counter is locked.
type fakeSource struct {
	mu        sync.Mutex
	byIssuer  map[string][]core.Proof
	bySubject map[string][]core.Proof
	queries   int
	asked     []string // "i|" or "s|" plus the principal's key, in arrival order
	err       error
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		byIssuer:  make(map[string][]core.Proof),
		bySubject: make(map[string][]core.Proof),
	}
}

func (f *fakeSource) add(p core.Proof) {
	c := p.Conclusion()
	f.byIssuer[c.Issuer.Key()] = append(f.byIssuer[c.Issuer.Key()], p)
	f.bySubject[c.Subject.Key()] = append(f.bySubject[c.Subject.Key()], p)
}

func (f *fakeSource) queryCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queries
}

// wasAsked reports whether any query on axis ("i" or "s") named p.
func (f *fakeSource) wasAsked(axis string, p principal.Principal) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, q := range f.asked {
		if q == axis+"|"+p.Key() {
			return true
		}
	}
	return false
}

func (f *fakeSource) ByIssuer(p principal.Principal) ([]core.Proof, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queries++
	f.asked = append(f.asked, "i|"+p.Key())
	return f.byIssuer[p.Key()], f.err
}

func (f *fakeSource) BySubject(p principal.Principal) ([]core.Proof, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queries++
	f.asked = append(f.asked, "s|"+p.Key())
	return f.bySubject[p.Key()], f.err
}

// remoteChain builds keys k0..kn and certificates k(i+1) =t=> k(i),
// so k(n) speaks for k(0) through n hops.
func remoteChain(t *testing.T, seed string, hops int, tg tag.Tag, v core.Validity) ([]principal.Principal, []*cert.Cert) {
	t.Helper()
	keys := make([]*sfkey.PrivateKey, hops+1)
	prins := make([]principal.Principal, hops+1)
	for i := range keys {
		keys[i] = sfkey.FromSeed([]byte(fmt.Sprintf("%s-%d", seed, i)))
		prins[i] = principal.KeyOf(keys[i].Public())
	}
	certs := make([]*cert.Cert, hops)
	for i := 0; i < hops; i++ {
		c, err := cert.Delegate(keys[i], prins[i+1], prins[i], tg, v)
		if err != nil {
			t.Fatal(err)
		}
		certs[i] = c
	}
	return prins, certs
}

func TestRemoteCompletesPartialChain(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.Prefix("doc")
	prins, certs := remoteChain(t, "partial", 3, tg, v)

	p := New()
	src := newFakeSource()
	p.AddRemote(src)
	// The first hop is already local; the rest only the source holds.
	p.AddProof(certs[0])
	src.add(certs[1])
	src.add(certs[2])

	proof, err := p.FindProof(prins[3], prins[0], tg, now)
	if err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, prins[3], prins[0], tg); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.RemoteCerts != 2 {
		t.Fatalf("stats = %+v, want 2 remote certs", st)
	}
}

func TestRemoteRejectsUnverifiable(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "forged", 1, tag.All(), v)

	forged := *certs[0]
	forged.Signature = append([]byte(nil), certs[0].Signature...)
	forged.Signature[0] ^= 1

	p := New()
	src := newFakeSource()
	src.add(&forged)
	p.AddRemote(src)

	if _, err := p.FindProof(prins[1], prins[0], tag.All(), now); err == nil {
		t.Fatal("accepted a proof built from a forged certificate")
	}
	st := p.Stats()
	if st.RemoteRejected == 0 {
		t.Fatalf("stats = %+v, forged cert not rejected", st)
	}
	if st.RemoteCerts != 0 || p.EdgeCount() != 0 {
		t.Fatalf("forged cert digested into the graph: %+v", st)
	}
}

func TestRemoteFanoutBound(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "fanout", 3, tag.All(), v)

	src := newFakeSource()
	for _, c := range certs {
		src.add(c)
	}

	// A single query (the issuer end) cannot reach hop 3's subject-side
	// answer... except the subject-axis query is planned only when
	// budget remains, so fanout 1 sees just the first hop.
	p := New()
	p.AddRemote(src)
	p.RemoteFanout = 1
	if _, err := p.FindProof(prins[3], prins[0], tag.All(), now); err == nil {
		t.Fatal("fanout 1 still proved a 3-hop chain")
	}
	if st := p.Stats(); st.RemoteQueries > 1 {
		t.Fatalf("fanout bound ignored: %d queries", st.RemoteQueries)
	}

	// Generous fanout succeeds.
	p2 := New()
	p2.AddRemote(src)
	if _, err := p2.FindProof(prins[3], prins[0], tag.All(), now); err != nil {
		t.Fatalf("default fanout failed: %v", err)
	}
	if st := p2.Stats(); st.RemoteQueries > DefaultRemoteFanout {
		t.Fatalf("spent %d queries, budget %d", st.RemoteQueries, DefaultRemoteFanout)
	}
}

func TestRemoteMergesSources(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "merge", 2, tag.All(), v)

	// Each directory holds half the chain; one of them also errors on
	// every subject query to exercise the degraded path.
	a, b := newFakeSource(), newFakeSource()
	a.add(certs[0])
	b.add(certs[1])

	p := New()
	p.AddRemote(a)
	p.AddRemote(b)
	proof, err := p.FindProof(prins[2], prins[0], tag.All(), now)
	if err != nil {
		t.Fatalf("FindProof across two sources: %v", err)
	}
	if err := proof.Verify(core.NewVerifyContext()); err != nil {
		t.Fatal(err)
	}
	if a.queryCount() == 0 || b.queryCount() == 0 {
		t.Fatalf("queries not spread: a=%d b=%d", a.queryCount(), b.queryCount())
	}
}

func TestRemoteSourceErrorDegrades(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	prins, certs := remoteChain(t, "degraded", 1, tag.All(), v)

	dead := newFakeSource()
	dead.err = fmt.Errorf("directory unreachable")
	live := newFakeSource()
	live.add(certs[0])

	p := New()
	p.AddRemote(dead)
	p.AddRemote(live)
	if _, err := p.FindProof(prins[1], prins[0], tag.All(), now); err != nil {
		t.Fatalf("one dead directory broke discovery: %v", err)
	}
}

// TestRemoteMintsThroughClosure checks discovery composes with the
// paper's closure mechanism: the remote chain reaches a principal the
// prover controls, and the last hop is minted locally.
func TestRemoteMintsThroughClosure(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	tg := tag.All()

	owner := sfkey.FromSeed([]byte("mint-owner"))
	team := sfkey.FromSeed([]byte("mint-team"))
	worker := sfkey.FromSeed([]byte("mint-worker"))
	ownerP := principal.KeyOf(owner.Public())
	teamP := principal.KeyOf(team.Public())
	workerP := principal.KeyOf(worker.Public())

	// The directory knows team =t=> owner; the prover controls team's
	// key and mints team -> worker on demand.
	c, err := cert.Delegate(owner, teamP, ownerP, tg, v)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(c)

	p := New()
	p.AddRemote(src)
	p.AddClosure(NewKeyClosure(team))

	proof, err := p.FindProof(workerP, ownerP, tg, now)
	if err != nil {
		t.Fatalf("FindProof: %v", err)
	}
	ctx := core.NewVerifyContext()
	ctx.Now = now
	if err := core.Authorize(ctx, proof, workerP, ownerP, tg); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Minted != 1 || st.RemoteCerts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
