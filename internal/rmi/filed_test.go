package rmi

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/channel/secure"
	"repro/internal/principal"
	"repro/internal/prover"
)

// issuerClient dials w's server with a prover that controls the
// server's own key, so every quoting speaker is authorized by one
// freshly minted delegation.
func (w *testWorld) issuerClient(t *testing.T) *Client {
	t.Helper()
	pv := prover.New()
	pv.AddClosure(prover.NewKeyClosure(w.serverKey))
	id, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func quotee(i int) principal.Principal {
	d := sha256.Sum256([]byte(fmt.Sprintf("filed-quotee-%d", i)))
	return principal.Hash{Alg: "sha256", Digest: d[:]}
}

// TestFiledProofsEvictLeastRecentlyUsed fills the server's proof store
// past its bound: the least recently used speaker is evicted and, on
// its next call, re-challenged and admitted, while warm speakers'
// calls are answered from the store without another verification.
func TestFiledProofsEvictLeastRecentlyUsed(t *testing.T) {
	w := newWorld(t, ObjectTag("echo"))
	c := w.issuerClient(t)
	call := func(i int) {
		t.Helper()
		var reply EchoReply
		if err := c.CallQuoting(quotee(i), "echo", "Echo", EchoArgs{Msg: "x"}, &reply); err != nil {
			t.Fatalf("speaker %d: %v", i, err)
		}
	}
	// expectWork calls speaker i and checks how many challenges and
	// server-side proof verifications the call cost.
	expectWork := func(i, want int) {
		t.Helper()
		ch, ver := c.Stats().Challenges, w.srv.Stats().ProofVerifies
		call(i)
		if dc, dv := c.Stats().Challenges-ch, w.srv.Stats().ProofVerifies-ver; dc != want || dv != want {
			t.Fatalf("speaker %d: %d challenges, %d verifications; want %d of each", i, dc, dv, want)
		}
	}

	expectWork(0, 1)
	expectWork(0, 0)
	for i := 1; i < maxFiledSpeakers; i++ {
		call(i)
	}
	// The store is full. Touching speaker 0 makes speaker 1 the least
	// recently used, so the next new speaker displaces 1, not 0.
	expectWork(0, 0)
	expectWork(maxFiledSpeakers, 1)
	expectWork(0, 0)
	expectWork(maxFiledSpeakers, 0)
	expectWork(1, 1)
}

// TestFiledProofsSweepExpiredBeforeEvicting checks that a full store
// makes room by dropping expired proofs before it evicts any live
// speaker, even when the expired speaker is the most recently used.
func TestFiledProofsSweepExpiredBeforeEvicting(t *testing.T) {
	now := time.Now()
	f := newFiledProofs()
	for i := 0; i < maxFiledSpeakers-1; i++ {
		f.add(fmt.Sprintf("live-%d", i), nil, time.Time{}, now)
	}
	f.add("expiring", nil, now.Add(time.Minute), now)
	f.get("expiring")
	f.add("new", nil, time.Time{}, now.Add(2*time.Minute))
	if _, ok := f.index["expiring"]; ok {
		t.Fatal("expired speaker survived a full store")
	}
	for _, k := range []string{"live-0", "new"} {
		if _, ok := f.index[k]; !ok {
			t.Fatalf("%s evicted while an expired speaker was on file", k)
		}
	}
}
