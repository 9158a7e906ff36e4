package prover

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/principal"
	"repro/internal/tag"
)

// RemoteSource is a store of delegations outside this process — a
// certificate directory (certdir.Client implements this), a name
// service, a gossip peer. The Prover consults sources only after the
// local delegation graph dead-ends, so local proving stays
// network-free.
//
// Sources supply candidate proofs; they are not trusted. Every
// fetched proof is verified before it is digested into the graph, so
// a compromised directory can withhold delegations (denial of
// service) but cannot plant authority.
//
// Implementations must be safe for concurrent use: the prover fans
// queries out in parallel.
type RemoteSource interface {
	// ByIssuer returns proofs whose conclusion issuer is the given
	// principal: the delegations extending that principal's authority.
	ByIssuer(issuer principal.Principal) ([]core.Proof, error)
	// BySubject returns proofs whose conclusion subject is the given
	// principal: the delegations that principal can exercise.
	BySubject(subject principal.Principal) ([]core.Proof, error)
}

// ContextSource is optionally implemented by remote sources that can
// carry a request context — certdir.Client does, propagating the
// context's obs trace as the HTTP Sf-Trace header and honoring
// cancellation. Sources implementing it are preferred over
// FilteredSource/RemoteSource during discovery.
type ContextSource interface {
	// ByIssuerForCtx is ByIssuerFor carrying the search's context.
	ByIssuerForCtx(ctx context.Context, issuer principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
	// BySubjectForCtx is the subject-side counterpart.
	BySubjectForCtx(ctx context.Context, subject principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
}

// FilteredSource is optionally implemented by remote sources that can
// narrow answers server-side (certdir.Client does, via the wire
// query's (limit n) and (tag t) clauses). When a source implements it,
// the prover pushes down the tag it is searching for — only
// delegations whose tag covers the goal can ever become usable edges
// (see reachable) — and a fetch cap, so heavy issuers don't ship
// thousands of irrelevant delegations per query. Sources without the
// interface get the plain unbounded ByIssuer/BySubject calls.
type FilteredSource interface {
	// ByIssuerFor is ByIssuer restricted to proofs whose conclusion
	// tag covers want, truncated to limit (0 = unbounded).
	ByIssuerFor(issuer principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
	// BySubjectFor is the subject-side counterpart.
	BySubjectFor(subject principal.Principal, want tag.Tag, limit int) ([]core.Proof, error)
}

// Defaults for the remote-discovery tunables.
const (
	DefaultNegativeTTL  = 30 * time.Second
	DefaultRemoteFanout = 32
	DefaultRemoteRounds = 4
	// DefaultRemoteLimit caps certificates fetched per filtered
	// directory query. A productive round needs only the edges that
	// extend the frontier; 256 covers realistic issuer fan-out while
	// bounding the damage a certificate-spamming issuer can do to
	// discovery latency.
	DefaultRemoteLimit = 256
)

// negCacheMax bounds the negative cache: at the bound, recording a
// new miss first prunes expired entries, then evicts the oldest —
// the incoming key is the freshest fact and is always inserted (see
// cacheNegative).
const negCacheMax = 4096

// AddRemote registers a remote delegation source. Multiple sources
// are queried in registration order and their answers merged.
func (p *Prover) AddRemote(r RemoteSource) {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	p.remotes = append(p.remotes, r)
}

// node is a principal with its cached Key(), so planning a round does
// not rebuild wire forms the search already derived.
type node struct {
	prin principal.Principal
	key  string
}

// remoteQuery is one directory question: an axis ("i" by issuer, "s"
// by subject) and a principal. key identifies it within a call.
type remoteQuery struct {
	axis string
	prin principal.Principal
	key  string
}

func newQuery(axis string, n node) remoteQuery {
	return remoteQuery{axis: axis, prin: n.prin, key: axis + "|" + n.key}
}

// negKey is the negative-cache key for q under a search tag (wantKey,
// the tag's canonical form). The tag must qualify the key: filtered
// sources answer "nothing for THIS tag", so an empty reply to (issuer,
// tag A) says nothing about (issuer, tag B) — caching it tag-blind
// would suppress the B query and fail proofs whose certificates are
// sitting in the directory.
func (q remoteQuery) negKey(wantKey string) string {
	return q.key + "|" + wantKey
}

// remoteAnswer collects the merged replies to one query. answered is
// false when every source errored, so an unreachable directory is
// never mistaken for a genuinely empty answer.
type remoteAnswer struct {
	proofs   []core.Proof
	answered bool
}

// findRemote runs bounded fetch-then-research rounds after a local
// miss, searching from both ends of the missing chain:
//
//   - the issuer side is the local frontier reachable backwards from
//     the issuer (reachable), asked by issuer;
//   - the subject side starts at the subject (plus the quotes its
//     closures stand in for, see subjectSeeds) and grows by the issuers
//     of verified subject-axis answers, asked by subject.
//
// Each round asks only the side with fewer unasked principals (both on
// a tie, the other once one side runs dry), digests verified answers
// as graph edges, and re-runs the local search. A chain through an
// issuer with wide fan-out is thus found from its narrow end, one
// question per hop rather than one per sibling. A fruitless round does
// not end the search while the other side has questions left; the
// per-call asked set guarantees termination. Unverified answers never
// steer a query, and no prover lock is held across network fetches.
func (p *Prover) findRemote(ctx context.Context, subject, issuer principal.Principal, want tag.Tag, now time.Time, localErr error) (core.Proof, error) {
	budget := p.RemoteFanout
	if budget <= 0 {
		budget = DefaultRemoteFanout
	}
	rounds := p.RemoteRounds
	if rounds <= 0 {
		rounds = DefaultRemoteRounds
	}
	wantKey := string(want.Sexp().Canonical())
	asked := make(map[string]bool) // queries spent (or negative-cached) during this call
	subjects := p.subjectSeeds(subject)
	onSubjectSide := make(map[string]bool, len(subjects))
	for _, n := range subjects {
		onSubjectSide[n.key] = true
	}
	err := localErr
	for round := 0; round < rounds && budget > 0; round++ {
		queries := p.planRound(p.reachable(issuer, want, now), subjects, wantKey, now, asked)
		if len(queries) == 0 {
			break
		}
		if len(queries) > budget {
			queries = queries[:budget]
		}
		budget -= len(queries)
		for _, q := range queries {
			asked[q.key] = true
		}
		p.rmu.Lock()
		remotes := append([]RemoteSource(nil), p.remotes...)
		p.rmu.Unlock()
		answers := fetchAll(ctx, remotes, queries, want, p.remoteLimit())

		p.stats.remoteQueries.Add(int64(len(queries) * len(remotes)))
		added := 0
		for i, q := range queries {
			if len(answers[i].proofs) == 0 {
				if answers[i].answered {
					p.cacheNegative(q.negKey(wantKey), now)
				}
				continue
			}
			n, verified := p.digestRemote(answers[i].proofs, now)
			added += n
			if q.axis != "s" {
				continue
			}
			// Only verified delegations that answer the question asked
			// — subject q.prin, covering want, valid now — extend the
			// subject side.
			for _, pr := range verified {
				c := pr.Conclusion()
				if !principal.Equal(c.Subject, q.prin) || !tag.Covers(c.Tag, want) || !c.Validity.Contains(now) {
					continue
				}
				if k := c.Issuer.Key(); !onSubjectSide[k] {
					onSubjectSide[k] = true
					subjects = append(subjects, node{prin: c.Issuer, key: k})
				}
			}
		}
		if added == 0 {
			continue
		}
		var proof core.Proof
		proof, err = p.find(subject, issuer, want, now, p.MaxDepth)
		if err == nil {
			return proof, nil
		}
	}
	return nil, err
}

// subjectSeeds is where the subject side starts: the subject itself
// and, when it is a quote X|C, Y|C for every principal Y the prover
// holds a closure for. find's quoting reduction already proves
// X|C => Y|C by minting X => Y, so a directory delegation from any Y|C
// completes the chain as well as one from X|C. Seeds past the subject
// are sorted by key, so a fanout-truncated round is deterministic.
func (p *Prover) subjectSeeds(subject principal.Principal) []node {
	seeds := []node{{prin: subject, key: subject.Key()}}
	sq, ok := subject.(principal.Quote)
	if !ok {
		return seeds
	}
	p.cmu.RLock()
	for _, c := range p.closures {
		y := principal.QuoteOf(c.Principal(), sq.Quotee)
		if k := y.Key(); k != seeds[0].key {
			seeds = append(seeds, node{prin: y, key: k})
		}
	}
	p.cmu.RUnlock()
	rest := seeds[1:]
	sort.Slice(rest, func(i, j int) bool { return rest[i].key < rest[j].key })
	return seeds
}

// planRound chooses this round's directory questions: the unasked
// principals of whichever side has fewer, both sides on a tie (issuer
// side first), and the other side once one has none left. A question
// answered empty within the negative TTL counts as asked.
func (p *Prover) planRound(frontier, subjects []node, wantKey string, now time.Time, asked map[string]bool) []remoteQuery {
	iq := p.unasked("i", frontier, wantKey, now, asked)
	sq := p.unasked("s", subjects, wantKey, now, asked)
	switch {
	case len(sq) == 0 || (len(iq) > 0 && len(iq) < len(sq)):
		return iq
	case len(iq) == 0 || len(sq) < len(iq):
		return sq
	}
	return append(iq, sq...)
}

// unasked returns the questions about nodes on one axis that this call
// has not spent and the negative cache does not suppress; suppressed
// questions are marked asked so they are counted once per call.
func (p *Prover) unasked(axis string, nodes []node, wantKey string, now time.Time, asked map[string]bool) []remoteQuery {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	var out []remoteQuery
	for _, n := range nodes {
		q := newQuery(axis, n)
		if asked[q.key] {
			continue
		}
		nk := q.negKey(wantKey)
		if t, ok := p.negCache[nk]; ok {
			if now.Sub(t) < p.negTTL() {
				p.stats.negCacheHits.Add(1)
				asked[q.key] = true
				continue
			}
			delete(p.negCache, nk)
		}
		out = append(out, q)
	}
	return out
}

// reachable collects every principal reachable backwards from issuer
// through usable edges (the BFS frontier of find), in BFS order
// starting at the issuer itself. It reads per-shard snapshots, like
// the search it mirrors.
func (p *Prover) reachable(issuer principal.Principal, want tag.Tag, now time.Time) []node {
	ik := issuer.Key()
	wantBucket := want.Bucket()
	visited := map[string]bool{ik: true}
	order := []node{{prin: issuer, key: ik}}
	for i := 0; i < len(order); i++ {
		for _, e := range p.edgesFor(order[i].key, wantBucket) {
			if p.DisableShortcuts && e.shortcut {
				continue
			}
			if visited[e.subjectKey] {
				continue
			}
			ec := e.proof.Conclusion()
			if !tag.Covers(ec.Tag, want) || !ec.Validity.Contains(now) {
				continue
			}
			visited[e.subjectKey] = true
			order = append(order, node{prin: e.subject, key: e.subjectKey})
		}
	}
	return order
}

// fetchAll runs every query against every remote concurrently, with
// no prover lock held, merging answers per query. Sources that
// implement FilteredSource are asked only for delegations covering
// the search tag, capped at limit. Source errors mark the (query,
// source) pair unanswered: an unreachable directory degrades
// discovery for a round, it neither fails proving nor poisons the
// negative cache.
func fetchAll(ctx context.Context, remotes []RemoteSource, queries []remoteQuery, want tag.Tag, limit int) []remoteAnswer {
	answers := make([]remoteAnswer, len(queries))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, q := range queries {
		for _, r := range remotes {
			wg.Add(1)
			go func(i int, q remoteQuery, r RemoteSource) {
				defer wg.Done()
				var (
					got []core.Proof
					err error
				)
				cs, withCtx := r.(ContextSource)
				fs, filtered := r.(FilteredSource)
				switch {
				case withCtx && q.axis == "i":
					got, err = cs.ByIssuerForCtx(ctx, q.prin, want, limit)
				case withCtx:
					got, err = cs.BySubjectForCtx(ctx, q.prin, want, limit)
				case filtered && q.axis == "i":
					got, err = fs.ByIssuerFor(q.prin, want, limit)
				case filtered:
					got, err = fs.BySubjectFor(q.prin, want, limit)
				case q.axis == "i":
					got, err = r.ByIssuer(q.prin)
				default:
					got, err = r.BySubject(q.prin)
				}
				if err != nil {
					return
				}
				mu.Lock()
				answers[i].answered = true
				answers[i].proofs = append(answers[i].proofs, got...)
				mu.Unlock()
			}(i, q, r)
		}
	}
	wg.Wait()
	return answers
}

func (p *Prover) remoteLimit() int {
	if p.RemoteLimit > 0 {
		return p.RemoteLimit
	}
	return DefaultRemoteLimit
}

// digestRemote verifies fetched proofs and installs the good ones as
// graph edges, returning how many were new and every proof that
// verified (new or already known). Verification consults the
// shared verified-proof cache: a delegation fetched by several
// concurrent searches (or previously screened by another layer) costs
// one signature check process-wide.
func (p *Prover) digestRemote(proofs []core.Proof, now time.Time) (added int, verified []core.Proof) {
	ctx := core.NewVerifyContext()
	ctx.Now = now
	ctx.Cache = core.SharedProofCache()
	// Revalidation demands are deferred to the relying verifier; the
	// prover only screens out proofs that can never verify.
	ctx.Revalidate = func([]byte, string) error { return nil }
	for _, pr := range proofs {
		if pr == nil {
			continue
		}
		if err := pr.Verify(ctx); err != nil {
			p.stats.remoteRejected.Add(1)
			continue
		}
		verified = append(verified, pr)
		if p.addEdge(pr, false) {
			added++
			p.stats.remoteCerts.Add(1)
		}
	}
	return added, verified
}

func (p *Prover) negTTL() time.Duration {
	if p.NegativeTTL > 0 {
		return p.NegativeTTL
	}
	return DefaultNegativeTTL
}

// cacheNegative records an empty directory answer, pruning expired
// entries when full and evicting the oldest entries when pruning
// frees nothing. The new key is always inserted: it is the freshest
// fact the cache holds, and refusing it (the old behavior) meant a
// hot missing issuer re-queried the directory on every FindProof for
// as long as the cache stayed full of still-fresh strangers.
func (p *Prover) cacheNegative(key string, now time.Time) {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	if len(p.negCache) >= negCacheMax {
		for k, t := range p.negCache {
			if now.Sub(t) >= p.negTTL() {
				delete(p.negCache, k)
			}
		}
		for len(p.negCache) >= negCacheMax {
			var oldestK string
			var oldestT time.Time
			for k, t := range p.negCache {
				if oldestK == "" || t.Before(oldestT) {
					oldestK, oldestT = k, t
				}
			}
			delete(p.negCache, oldestK)
			p.stats.negCacheEvicted.Add(1)
		}
	}
	p.negCache[key] = now
}
