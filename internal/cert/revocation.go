package cert

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// RevocationList is a signed statement by an issuing key that the
// listed certificates (identified by their body hashes) are void. Its
// validity window bounds the list's freshness, mirroring SPKI CRL
// semantics expressed in the logic (section 4.1).
// A RevocationList is immutable once constructed (NewRevocationList
// or RevocationListFromSexp); its content hash is computed once there
// and gossip re-reads it every round.
type RevocationList struct {
	Signer    sfkey.PublicKey
	Hashes    [][]byte
	Validity  core.Validity
	Signature []byte

	hash    [32]byte // cached Hash(); set by the constructors
	hashSet bool
}

// NewRevocationList signs a CRL voiding the given certificate hashes.
func NewRevocationList(priv *sfkey.PrivateKey, v core.Validity, hashes ...[]byte) *RevocationList {
	rl := &RevocationList{Signer: priv.Public(), Validity: v}
	for _, h := range hashes {
		rl.Hashes = append(rl.Hashes, append([]byte(nil), h...))
	}
	rl.Signature = priv.Sign(rl.signingBytes())
	rl.hash, rl.hashSet = rl.Sexp().Hash(), true
	return rl
}

func (rl *RevocationList) signingBytes() []byte {
	kids := []sexp.Sexp{sexp.String("crl-body")}
	if v := rl.Validity.Sexp(); v != nil {
		kids = append(kids, v)
	}
	for _, h := range rl.Hashes {
		kids = append(kids, sexp.Atom(h))
	}
	return sexp.List(kids...).Canonical()
}

// Verify checks the CRL signature.
func (rl *RevocationList) Verify() error {
	if !rl.Signer.Verify(rl.signingBytes(), rl.Signature) {
		return fmt.Errorf("cert: bad CRL signature")
	}
	return nil
}

// Sexp encodes the CRL for transfer.
func (rl *RevocationList) Sexp() sexp.Sexp {
	kids := []sexp.Sexp{
		sexp.String("crl"),
		sexp.List(sexp.String("signer"), rl.Signer.Sexp()),
		sexp.List(sexp.String("signature"), sexp.Atom(rl.Signature)),
	}
	if v := rl.Validity.Sexp(); v != nil {
		kids = append(kids, v)
	}
	for _, h := range rl.Hashes {
		kids = append(kids, sexp.List(sexp.String("revoked"), sexp.Atom(h)))
	}
	return sexp.List(kids...)
}

// Hash returns the CRL's content identity — the hash of its canonical
// encoding (body and signature alike) — used to deduplicate installs
// and to diff CRL sets during gossip. Constructed lists carry it
// precomputed; the fallback (a hand-assembled literal) computes fresh
// each call rather than racing to memoize.
func (rl *RevocationList) Hash() [32]byte {
	if rl.hashSet {
		return rl.hash
	}
	return rl.Sexp().Hash()
}

// RevocationListFromSexp decodes a CRL.
func RevocationListFromSexp(e sexp.Sexp) (*RevocationList, error) {
	if e == nil || e.Tag() != "crl" {
		return nil, fmt.Errorf("cert: not a crl expression")
	}
	signerE := e.Child("signer")
	sigE := e.Child("signature")
	if signerE == nil || signerE.Len() != 2 || sigE == nil || sigE.Len() != 2 {
		return nil, fmt.Errorf("cert: crl missing signer or signature")
	}
	pub, err := sfkey.PublicFromSexp(signerE.Nth(1))
	if err != nil {
		return nil, err
	}
	v, err := core.ValidityFromSexp(e.Child("valid"))
	if err != nil {
		return nil, err
	}
	rl := &RevocationList{
		Signer:    pub,
		Validity:  v,
		Signature: append([]byte(nil), sigE.Nth(1).Bytes()...),
	}
	for i := 1; i < e.Len(); i++ {
		c := e.Nth(i)
		if c.Tag() == "revoked" && c.Len() == 2 && c.Nth(1).IsAtom() {
			rl.Hashes = append(rl.Hashes, append([]byte(nil), c.Nth(1).Bytes()...))
		}
	}
	rl.hash, rl.hashSet = rl.Sexp().Hash(), true
	return rl, nil
}

// RevocationStore aggregates verified CRLs and answers the
// VerifyContext.Revoked query. It is safe for concurrent use.
//
// Installing a CRL bumps the revocation epoch of the process-wide
// shared proof cache (and any caches attached with AttachCache), so
// cached verification verdicts die with the certificates they rest
// on: the next presentation of an affected proof re-verifies against
// the new revocation state.
type RevocationStore struct {
	mu     sync.RWMutex
	lists  []*RevocationList
	seen   map[[32]byte]bool // installed CRL hashes, for dedup (never swept; see Sweep)
	byHash map[string][]revEntry
	caches []*core.ProofCache
	view   uint64
}

// revEntry is one CRL's claim on one certificate hash in the byHash
// index, with the signer's principal key precomputed so the
// issuer-matched predicates never serialize a key per lookup.
type revEntry struct {
	rl        *RevocationList
	signerKey string
}

// nextView hands each store a process-unique revocation view id;
// cached proof verdicts are shared only between verifiers holding the
// same view, so a verdict checked against this store's CRLs never
// lets a verifier with different revocation state skip its own check.
var nextView atomic.Uint64

// NewRevocationStore returns an empty store wired to the shared proof
// cache, with a fresh revocation view id.
func NewRevocationStore() *RevocationStore {
	return &RevocationStore{
		seen:   make(map[[32]byte]bool),
		byHash: make(map[string][]revEntry),
		caches: []*core.ProofCache{core.SharedProofCache()},
		view:   nextView.Add(1),
	}
}

// View returns the store's revocation view id for
// core.VerifyContext.RevocationView.
func (s *RevocationStore) View() uint64 { return s.view }

// Bind wires a verification context to this store: the Revoked hook
// and the matching revocation view, so the context may share cached
// verdicts with every other verifier bound to the same store.
func (s *RevocationStore) Bind(ctx *core.VerifyContext) {
	ctx.Revoked = s.Checker(ctx)
	ctx.RevocationView = s.view
}

// AttachCache registers an additional proof cache whose epoch this
// store bumps on revocation; verifiers running a private cache attach
// it here so their cached verdicts obey this store's CRLs.
func (s *RevocationStore) AttachCache(c *core.ProofCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.caches = append(s.caches, c)
}

// Add verifies and installs a CRL, invalidating attached proof
// caches. A CRL that is not yet fresh (future NotBefore) schedules a
// second bump for the moment it becomes fresh: verdicts cached in the
// not-yet-fresh window would otherwise outlive the CRL's activation.
// The schedule runs on the wall clock; harnesses that verify under a
// simulated clock must call BumpEpoch themselves when their clock
// crosses a CRL's NotBefore.
func (s *RevocationStore) Add(rl *RevocationList) error {
	_, err := s.AddNew(rl)
	return err
}

// AddNew is Add with idempotence made visible: installing a CRL
// already held (same content hash) is a no-op that reports
// added == false — and, crucially, bumps no epoch, so re-reading an
// unchanged CRL file or re-receiving a gossiped CRL never flushes
// the proof cache. Hot reload and CRL gossip both install through
// AddNew.
func (s *RevocationStore) AddNew(rl *RevocationList) (added bool, err error) {
	a, errs := s.AddNewBatch([]*RevocationList{rl})
	return a[0], errs[0]
}

// AddNewBatch installs many CRLs at once, with the two costs that
// scale badly per-list amortized across the batch: the signature
// checks run through one sfkey.BatchVerifier (one check per list over
// a worker pool, so a bad list is pinpointed instead of condemning
// the batch), and however many lists are newly installed, attached proof
// caches are flushed by ONE epoch bump — k CRLs arriving in a gossip
// round no longer cost k full cache flushes. Outcomes are reported
// per list, aligned with rls: added[i] true for newly installed
// lists, errs[i] non-nil for rejected ones (bad signature), both
// false/nil for deduplicated re-installs.
func (s *RevocationStore) AddNewBatch(rls []*RevocationList) (added []bool, errs []error) {
	added = make([]bool, len(rls))
	errs = make([]error, len(rls))
	var bv sfkey.BatchVerifier
	pos := make([]int, 0, len(rls)) // batch index -> rls index
	for i, rl := range rls {
		if rl == nil {
			errs[i] = fmt.Errorf("cert: nil CRL")
			continue
		}
		bv.Add(rl.Signer, rl.signingBytes(), rl.Signature)
		pos = append(pos, i)
	}
	for _, bi := range bv.Verify() {
		errs[pos[bi]] = fmt.Errorf("cert: bad CRL signature")
	}
	var installed []*RevocationList
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[[32]byte]bool)
	}
	for i, rl := range rls {
		if rl == nil || errs[i] != nil {
			continue
		}
		h := rl.Hash()
		if s.seen[h] {
			continue
		}
		s.seen[h] = true
		s.lists = append(s.lists, rl)
		s.indexLocked(rl)
		added[i] = true
		installed = append(installed, rl)
	}
	caches := append([]*core.ProofCache(nil), s.caches...)
	s.mu.Unlock()
	if len(installed) == 0 {
		return added, errs
	}
	for _, c := range caches {
		c.BumpEpoch()
	}
	for _, rl := range installed {
		s.scheduleActivationBump(rl)
	}
	return added, errs
}

// scheduleActivationBump arranges the second cache flush for a CRL
// installed before its NotBefore: verdicts cached in the not-yet-fresh
// window must not outlive the list's activation. The schedule runs on
// the wall clock; harnesses verifying under a simulated clock call
// BumpEpoch themselves when their clock crosses a CRL's NotBefore.
func (s *RevocationStore) scheduleActivationBump(rl *RevocationList) {
	nb := rl.Validity.NotBefore
	if nb.IsZero() || !nb.After(time.Now()) {
		return
	}
	time.AfterFunc(time.Until(nb)+10*time.Millisecond, func() {
		s.mu.RLock()
		caches := append([]*core.ProofCache(nil), s.caches...)
		s.mu.RUnlock()
		for _, c := range caches {
			c.BumpEpoch()
		}
	})
}

// Lists returns a snapshot of the installed CRLs; the certificate
// directory serves them to gossip peers from here.
func (s *RevocationStore) Lists() []*RevocationList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*RevocationList(nil), s.lists...)
}

// Has reports whether a CRL with the given content hash is installed;
// gossip uses it to diff CRL sets without shipping the lists.
func (s *RevocationStore) Has(h [32]byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seen[h]
}

// Checker returns the Revoked callback for a VerifyContext. A
// certificate counts as revoked when any CRL fresh at the context's
// verification time lists its hash.
func (s *RevocationStore) Checker(ctx *core.VerifyContext) func([]byte) bool {
	return func(h []byte) bool { return s.revokedAt(h, ctx.At()) }
}

// RevokedAt returns a predicate over certificate hashes as of the
// given instant, independent of any VerifyContext; certificate
// directories use it to evict delegations a fresh CRL has voided.
func (s *RevocationStore) RevokedAt(at time.Time) func([]byte) bool {
	return func(h []byte) bool { return s.revokedAt(h, at) }
}

// RevokedByIssuerAt is RevokedAt restricted to CRLs whose signer IS
// the certificate's issuer (matched by principal key): only the key
// that granted a delegation may void it. Directories use this
// predicate for CRLs that arrive over the network (admin endpoint,
// gossip), where a valid signature alone proves only that SOMEONE
// signed the list — without the issuer match, any key holder could
// sign a CRL naming arbitrary certificate hashes and deny service to
// delegations it never issued.
func (s *RevocationStore) RevokedByIssuerAt(at time.Time) func(certHash []byte, issuerKey string) bool {
	// Snapshot the fresh slice of the hash index once: the returned
	// predicate runs once per stored certificate
	// (Store.EvictRevokedByIssuer scans the whole directory), so each
	// call must be a map lookup — no store lock, no signer-key
	// serialization, no scan over every revoked hash.
	s.mu.RLock()
	fresh := make(map[string][]string, len(s.byHash))
	for h, entries := range s.byHash {
		for _, e := range entries {
			if e.rl.Validity.Contains(at) {
				fresh[h] = append(fresh[h], e.signerKey)
			}
		}
	}
	s.mu.RUnlock()
	return func(h []byte, issuerKey string) bool {
		for _, sk := range fresh[string(h)] {
			if sk == issuerKey {
				return true
			}
		}
		return false
	}
}

// indexLocked adds one installed CRL's hashes to the byHash index;
// the caller holds the write lock.
func (s *RevocationStore) indexLocked(rl *RevocationList) {
	if s.byHash == nil {
		s.byHash = make(map[string][]revEntry)
	}
	e := revEntry{rl: rl, signerKey: principal.KeyOf(rl.Signer).Key()}
	for _, h := range rl.Hashes {
		s.byHash[string(h)] = append(s.byHash[string(h)], e)
	}
}

// revokedAt answers through the hash index: one map lookup plus a
// freshness check per CRL naming this certificate, instead of a scan
// over every hash of every installed list.
func (s *RevocationStore) revokedAt(h []byte, at time.Time) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.byHash[string(h)] {
		if e.rl.Validity.Contains(at) {
			return true
		}
	}
	return false
}

// Sweep drops every CRL whose validity window has lapsed (NotAfter
// before now): the certificates such a list voided have expired too
// wherever the CRL mattered — a CRL bounded to outlive its targets is
// the issuer's job, and a lapsed list no longer affects any verdict
// (revokedAt checks freshness) — so keeping it only bloats the store
// and the hash index. The dedup set is intentionally NOT swept: a
// peer still holding a lapsed CRL would otherwise re-gossip it every
// round, and each reinstall would bump the proof-cache epoch — a
// flush loop bought by nothing. It returns the number of lists
// dropped. No epoch bump is needed: only positive verdicts are
// cached, so no cached state rests on a list's presence.
func (s *RevocationStore) Sweep(now time.Time) (dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.lists[:0]
	for _, rl := range s.lists {
		if na := rl.Validity.NotAfter; !na.IsZero() && na.Before(now) {
			dropped++
			continue
		}
		kept = append(kept, rl)
	}
	if dropped == 0 {
		return 0
	}
	s.lists = kept
	s.byHash = make(map[string][]revEntry, len(s.byHash))
	for _, rl := range s.lists {
		s.indexLocked(rl)
	}
	return dropped
}

// Revalidator is a trivial in-process one-time revalidation service:
// certificates registered as suspended fail revalidation. Real
// deployments would consult the issuer over a channel; the interface
// to the verifier is identical.
type Revalidator struct {
	mu        sync.RWMutex
	suspended map[string]bool
}

// NewRevalidator returns a service that confirms everything.
func NewRevalidator() *Revalidator {
	return &Revalidator{suspended: make(map[string]bool)}
}

// Suspend marks a certificate hash as no longer confirmable.
func (r *Revalidator) Suspend(certHash []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.suspended[string(certHash)] = true
}

// Restore lifts a suspension.
func (r *Revalidator) Restore(certHash []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.suspended, string(certHash))
}

// Revalidate implements the VerifyContext.Revalidate signature.
func (r *Revalidator) Revalidate(certHash []byte, where string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.suspended[string(certHash)] {
		return fmt.Errorf("cert: issuer at %q no longer confirms certificate", where)
	}
	return nil
}
