package prover

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// wideWorld is the quoting gateway's discovery problem at a width the
// issuer frontier alone cannot afford: a root delegating to many orgs,
// each principal holding one org's grant and a handoff to the gateway
// quoting it. The prover holds closures for the gateway key G and its
// channel key ch, as a deployed gateway does.
type wideWorld struct {
	root, g, ch principal.Principal
	orgKeys     []*sfkey.PrivateKey
	src         *filteredFake
	p           *Prover
	v           core.Validity
}

func newWideWorld(t *testing.T, orgs int, now time.Time) *wideWorld {
	t.Helper()
	w := &wideWorld{src: &filteredFake{fakeSource: newFakeSource()}, v: core.Until(now.Add(time.Hour))}
	rootKey := sfkey.FromSeed([]byte("wide-root"))
	gKey := sfkey.FromSeed([]byte("wide-gateway"))
	chKey := sfkey.FromSeed([]byte("wide-channel"))
	w.root = principal.KeyOf(rootKey.Public())
	w.g = principal.KeyOf(gKey.Public())
	w.ch = principal.KeyOf(chKey.Public())
	for i := 0; i < orgs; i++ {
		k := sfkey.FromSeed([]byte(fmt.Sprintf("wide-org-%d", i)))
		w.orgKeys = append(w.orgKeys, k)
		w.src.add(w.mustCert(t, rootKey, principal.KeyOf(k.Public()), w.root, tag.All()))
	}
	w.p = New()
	w.p.AddRemote(w.src)
	w.p.AddClosure(NewKeyClosure(gKey))
	w.p.AddClosure(NewKeyClosure(chKey))
	return w
}

func (w *wideWorld) mustCert(t *testing.T, signer *sfkey.PrivateKey, subj, iss principal.Principal, tg tag.Tag) *cert.Cert {
	t.Helper()
	c, err := cert.Delegate(signer, subj, iss, tg, w.v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// principalUnder publishes org -> name and name -> G|name, returning
// the principal and the tag an admit for it asks for.
func (w *wideWorld) principalUnder(t *testing.T, org int, name string) (principal.Principal, tag.Tag) {
	t.Helper()
	k := sfkey.FromSeed([]byte("wide-principal-" + name))
	prin := principal.KeyOf(k.Public())
	grant := tag.ListOf(tag.Literal("mail"), tag.Literal(name))
	orgKey := w.orgKeys[org]
	w.src.add(w.mustCert(t, orgKey, prin, principal.KeyOf(orgKey.Public()), grant))
	w.src.add(w.mustCert(t, k, principal.QuoteOf(w.g, prin), prin, grant))
	return prin, tag.ListOf(tag.Literal("mail"), tag.Literal(name), tag.Literal("select"))
}

// TestWideWorldDiscoveryIsChainLength pins the two-sided search's cost
// on a world wider than DefaultRemoteFanout: the issuer frontier alone
// would ask every one of 75 orgs (and run out of budget first), while
// the subject side walks the chain from the quoting subject ch|P up,
// one question per hop.
func TestWideWorldDiscoveryIsChainLength(t *testing.T) {
	now := time.Now()
	w := newWideWorld(t, 75, now)
	admit := func(org int, name string, maxQueries int) {
		t.Helper()
		prin, want := w.principalUnder(t, org, name)
		subject := principal.QuoteOf(w.ch, prin)
		before := w.src.queryCount()
		proof, err := w.p.FindProof(subject, w.root, want, now)
		if err != nil {
			t.Fatalf("%s: FindProof: %v", name, err)
		}
		ctx := core.NewVerifyContext()
		ctx.Now = now
		if err := core.Authorize(ctx, proof, subject, w.root, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := w.src.queryCount() - before; n > maxQueries {
			t.Fatalf("%s: %d directory queries, want <= %d", name, n, maxQueries)
		}
	}
	// Cold prover: the root's delegations, then ch|P and G|P, then P.
	admit(37, "alice", 4)
	// The root's delegations are now local, so the issuer frontier has
	// 76 unasked principals and the subject side answers alone.
	admit(60, "bob", 3)
	if st := w.p.Stats(); st.RemoteRejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestForgedSubjectAnswerNeverSteers checks that a subject-axis answer
// failing verification is dropped and counted, and that its issuer is
// never asked about: only verified delegations grow the subject side.
func TestForgedSubjectAnswerNeverSteers(t *testing.T) {
	now := time.Now()
	v := core.Until(now.Add(time.Hour))
	key := func(seed string) *sfkey.PrivateKey { return sfkey.FromSeed([]byte("forged-steer-" + seed)) }
	prin := func(k *sfkey.PrivateKey) principal.Principal { return principal.KeyOf(k.Public()) }
	root, subj, evil := key("root"), key("subject"), key("evil")

	forged, err := cert.Delegate(evil, prin(subj), prin(evil), tag.All(), v)
	if err != nil {
		t.Fatal(err)
	}
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	// Were evil's authority believed, this genuine certificate would
	// lead the search onward from it.
	onward, err := cert.Delegate(root, prin(evil), prin(root), tag.Prefix("other"), v)
	if err != nil {
		t.Fatal(err)
	}

	src := &filteredFake{fakeSource: newFakeSource()}
	src.add(forged)
	src.add(onward)
	p := New()
	p.AddRemote(src)
	if _, err := p.FindProof(prin(subj), prin(root), tag.All(), now); err == nil {
		t.Fatal("proved through a forged certificate")
	}
	if st := p.Stats(); st.RemoteRejected == 0 || st.RemoteCerts != 0 {
		t.Fatalf("forged answer not rejected: %+v", st)
	}
	if src.wasAsked("s", prin(evil)) || src.wasAsked("i", prin(evil)) {
		t.Fatal("the forged certificate's issuer was queried onward")
	}
}
