package rmi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"reflect"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/principal"
	"repro/internal/sfkey"
	"repro/internal/tag"
)

// TagFunc maps a method invocation (with its decoded arguments) to
// the restriction set required to authorize it — the server
// programmer's "mapping from method invocation to restriction set
// (T)" of section 5.1.1.
type TagFunc func(object, method string, args interface{}) tag.Tag

// DefaultTagFunc requires (rmi (object X) (method M)).
func DefaultTagFunc(object, method string, args interface{}) tag.Tag {
	return MethodTag(object, method)
}

// object is a registered remote object.
type object struct {
	name   string
	issuer principal.Principal // KS: the principal controlling the object
	tagFor TagFunc
	recv   reflect.Value
	method map[string]reflect.Method
	open   bool // unprotected: no checkAuth prologue
}

// Stats counts server-side authorization work, reported by the
// measurement harness.
type Stats struct {
	Calls         int
	AuthChecks    int
	AuthFailures  int
	ProofSubmits  int
	ProofVerifies int
}

// Server dispatches invocations arriving over authenticated channels.
type Server struct {
	mu      sync.Mutex
	objects map[string]*object
	// proofs caches verified proofs by subject principal key — the
	// "cache/proof" box of Figure 4. Entries are only ever inserted
	// after full verification.
	proofs filedProofs
	// vctx holds the persistent verification context; its local memo
	// is discarded on every proof-cache epoch bump so revoked chains
	// re-verify.
	vctx  core.EpochContext
	stats Stats

	// conns tracks live connections and inflight the dispatches on
	// them, so Drain can stop accepting work, wait for calls already
	// executing, and only then tear channels down.
	conns    map[channel.Conn]struct{}
	inflight sync.WaitGroup
	draining bool

	// Clock supplies verification time; nil means time.Now.
	Clock func() time.Time
	// Revoked and Revalidate plug revocation state into proof
	// verification (package cert). They are consulted when a proof is
	// first verified; cached verdicts are dropped whenever the proof
	// cache's revocation epoch advances (cert.RevocationStore bumps it
	// on every CRL), so a revocation takes effect at the next call
	// without ForgetProofs.
	Revoked    func(certHash []byte) bool
	Revalidate func(certHash []byte, where string) error
	// RevocationView identifies the revocation state behind Revoked
	// (cert.RevocationStore.View). With Revoked set but no view, the
	// shared proof cache is bypassed — safe but slow; wiring helpers
	// like emaildb.RegisterWithRevocation set both.
	RevocationView uint64
	// Cache is the verified-proof cache; nil means the process-wide
	// shared cache.
	Cache *core.ProofCache
	// Obs records one span per dispatched call, continuing the trace
	// named by the request's Trace field; nil disables tracing.
	Obs *obs.Recorder
	// Audit receives one Decision per checkAuth prologue; nil
	// disables the audit trail.
	Audit *obs.AuditLog
	// Logf reports connections Serve drops without stopping (failed
	// handshakes); nil means log.Printf.
	Logf func(format string, args ...any)
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		objects: make(map[string]*object),
		proofs:  newFiledProofs(),
	}
}

// Register installs a protected remote object. Methods must have the
// net/rpc shape: func (t *T) M(args A, reply *R) error. Every call is
// prefixed by checkAuth against the issuer and tagFor (nil tagFor
// uses DefaultTagFunc).
func (s *Server) Register(name string, impl interface{}, issuer principal.Principal, tagFor TagFunc) error {
	return s.register(name, impl, issuer, tagFor, false)
}

// RegisterOpen installs an unprotected object (the "basic RMI"
// baseline of Figure 6).
func (s *Server) RegisterOpen(name string, impl interface{}) error {
	return s.register(name, impl, nil, nil, true)
}

func (s *Server) register(name string, impl interface{}, issuer principal.Principal, tagFor TagFunc, open bool) error {
	if !open && issuer == nil {
		return fmt.Errorf("rmi: protected object %q needs an issuer", name)
	}
	if tagFor == nil {
		tagFor = DefaultTagFunc
	}
	recv := reflect.ValueOf(impl)
	t := recv.Type()
	methods := make(map[string]reflect.Method)
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !suitableMethod(m) {
			continue
		}
		methods[m.Name] = m
	}
	if len(methods) == 0 {
		return fmt.Errorf("rmi: %q exports no suitable methods", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[name]; dup {
		return fmt.Errorf("rmi: object %q already registered", name)
	}
	s.objects[name] = &object{
		name: name, issuer: issuer, tagFor: tagFor,
		recv: recv, method: methods, open: open,
	}
	return nil
}

// suitableMethod checks the net/rpc shape: two args (value, pointer),
// one error return.
func suitableMethod(m reflect.Method) bool {
	mt := m.Type
	if mt.NumIn() != 3 || mt.NumOut() != 1 {
		return false
	}
	if mt.In(2).Kind() != reflect.Ptr {
		return false
	}
	return mt.Out(0) == reflect.TypeOf((*error)(nil)).Elem()
}

// Serve accepts connections until the listener fails. A connection
// whose handshake fails (a port probe, a peer speaking another
// protocol) is logged and dropped; only a listener failure ends Serve.
func (s *Server) Serve(l channel.Listener) error {
	for {
		conn, err := l.Accept()
		if errors.Is(err, channel.ErrHandshake) {
			s.logf("rmi: dropped connection: %v", err)
			continue
		}
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ServeConn dispatches one connection; it returns when the peer
// disconnects. Responses are buffered and flushed once per message.
func (s *Server) ServeConn(conn channel.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[channel.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	for {
		var req callRequest
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				// Connection torn down; nothing to report to.
				_ = err
			}
			return
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		// The call stays in flight until its reply is flushed: Drain
		// closes connections once inflight reaches zero, and must not
		// cut a reply that is still being written.
		err := enc.Encode(s.dispatch(conn, &req))
		if err == nil {
			err = bw.Flush()
		}
		s.inflight.Done()
		if err != nil {
			return
		}
	}
}

// Drain stops dispatching new calls, waits up to timeout (forever
// when timeout <= 0) for in-flight dispatches to finish, and then
// closes every live connection so ServeConn loops unwind. Daemons
// reach it through server.Runtime.ServeRMI; direct callers pair it
// with closing their listener.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	conns := make([]channel.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
		}
	} else {
		<-done
	}
	for _, c := range conns {
		c.Close()
	}
}

// speakerFor derives the principal that uttered a request: the
// channel's peer key ("checkAuth discovers the key K2 associated with
// the channel"), wrapped as a quoting principal when the caller
// claims to quote (section 6.3).
func speakerFor(conn channel.Conn, req *callRequest) (principal.Principal, error) {
	peer := conn.PeerKey()
	var base principal.Principal
	if len(peer.Raw) == 0 {
		// Unauthenticated channel: only the channel itself speaks.
		base = conn.Principal()
	} else {
		base = principal.KeyOf(peer)
	}
	if len(req.Quotee) == 0 {
		return base, nil
	}
	qe, err := principal.Parse(string(req.Quotee))
	if err != nil {
		return nil, fmt.Errorf("rmi: bad quotee: %w", err)
	}
	return principal.QuoteOf(base, qe), nil
}

func (s *Server) dispatch(conn channel.Conn, req *callRequest) *callResponse {
	s.mu.Lock()
	s.stats.Calls++
	s.mu.Unlock()
	resp := &callResponse{ID: req.ID}

	var span *obs.ActiveSpan
	if s.Obs != nil {
		_, span = s.Obs.StartFromHeader(context.Background(), req.Trace, "rmi."+req.Object+"."+req.Method)
		defer span.End()
	}

	if req.Object == proofRecipientObject {
		return s.handleProofSubmit(req, resp)
	}

	s.mu.Lock()
	obj, ok := s.objects[req.Object]
	s.mu.Unlock()
	if !ok {
		resp.Kind = kindError
		resp.Err = fmt.Sprintf("rmi: no object %q", req.Object)
		return resp
	}
	m, ok := obj.method[req.Method]
	if !ok {
		resp.Kind = kindError
		resp.Err = fmt.Sprintf("rmi: %q has no method %q", req.Object, req.Method)
		return resp
	}

	// Decode arguments.
	argv := reflect.New(m.Type.In(1))
	if err := gob.NewDecoder(bytes.NewReader(req.Args)).DecodeValue(argv); err != nil {
		resp.Kind = kindError
		resp.Err = fmt.Sprintf("rmi: decode args: %v", err)
		return resp
	}

	// The checkAuth() prologue (Figure 4, step l).
	if !obj.open {
		speaker, err := speakerFor(conn, req)
		if err != nil {
			resp.Kind = kindError
			resp.Err = err.Error()
			return resp
		}
		reqTag := obj.tagFor(req.Object, req.Method, argv.Elem().Interface())
		authStart := time.Now()
		proof, err := s.checkAuth(speaker, obj.issuer, reqTag)
		if err != nil {
			var ae *core.AuthError
			if errors.As(err, &ae) {
				span.SetAttr("verdict", "challenge")
				s.audit(obs.Decision{
					Op: req.Object + "." + req.Method, Principal: speaker.String(),
					Tag: reqTag.String(), Verdict: obs.VerdictChallenge,
					Reason: ae.Reason, Duration: time.Since(authStart).Microseconds(),
					Trace: traceOf(req),
				})
				resp.Kind = kindNeedAuth
				resp.Issuer, resp.MinTag = encodeChallenge(ae.Issuer, ae.MinTag)
				return resp
			}
			span.Fail(err)
			s.audit(obs.Decision{
				Op: req.Object + "." + req.Method, Principal: speaker.String(),
				Tag: reqTag.String(), Verdict: obs.VerdictDeny,
				Reason: err.Error(), Duration: time.Since(authStart).Microseconds(),
				Trace: traceOf(req),
			})
			resp.Kind = kindError
			resp.Err = err.Error()
			return resp
		}
		span.SetAttr("verdict", "admit")
		s.audit(obs.Decision{
			Op: req.Object + "." + req.Method, Principal: speaker.String(),
			Tag: reqTag.String(), Verdict: obs.VerdictAdmit,
			CertHashes: core.LeafHashes(proof),
			Duration:   time.Since(authStart).Microseconds(),
			Trace:      traceOf(req),
		})
	}

	// Invoke.
	replyv := reflect.New(m.Type.In(2).Elem())
	out := m.Func.Call([]reflect.Value{obj.recv, argv.Elem(), replyv})
	if errv := out[0].Interface(); errv != nil {
		resp.Kind = kindError
		resp.Err = errv.(error).Error()
		return resp
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(replyv); err != nil {
		resp.Kind = kindError
		resp.Err = fmt.Sprintf("rmi: encode reply: %v", err)
		return resp
	}
	resp.Kind = kindOK
	resp.Result = buf.Bytes()
	return resp
}

// checkAuth finds a cached, already verified proof that speaker
// speaks for issuer regarding reqTag, returning the proof that
// authorized the call (the audit trail names its chain). Because
// proofs are verified when submitted and conclusions carry their own
// expiry, the per-call cost is a cache lookup plus tag matching
// (section 7.2: "finds a cached proof for that subject and sees that
// the proof has already been verified").
func (s *Server) checkAuth(speaker, issuer principal.Principal, reqTag tag.Tag) (core.Proof, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.AuthChecks++
	ctx := s.verifyContextLocked()
	for _, fp := range s.proofs.get(speaker.Key()) {
		if err := core.Authorize(ctx, fp.proof, speaker, issuer, reqTag); err == nil {
			return fp.proof, nil
		}
	}
	s.stats.AuthFailures++
	return nil, &core.AuthError{Issuer: issuer, MinTag: reqTag, Reason: "no valid proof on file"}
}

// audit stamps the layer and revocation coordinates onto a decision
// and appends it; a nil Audit log makes this a no-op.
func (s *Server) audit(d obs.Decision) {
	if s.Audit == nil {
		return
	}
	cache := s.Cache
	if cache == nil {
		cache = core.SharedProofCache()
	}
	d.Layer = "rmi"
	d.Epoch = cache.Epoch()
	d.View = s.RevocationView
	s.Audit.Append(d)
}

// traceOf extracts the trace ID from a request's Sf-Trace value.
func traceOf(req *callRequest) string {
	trace, _, _ := obs.ParseHeader(req.Trace)
	return trace
}

// verifyContextLocked refreshes the shared verification context's
// clock, revocation hooks, and proof cache. The context's local memo
// persists across calls — that is the warm path — but it is discarded
// whenever the proof cache's revocation epoch advances, so no stale
// verdict survives a CRL.
func (s *Server) verifyContextLocked() *core.VerifyContext {
	now := time.Now()
	if s.Clock != nil {
		now = s.Clock()
	}
	cache := s.Cache
	if cache == nil {
		cache = core.SharedProofCache()
	}
	ctx := s.vctx.Refresh(cache)
	ctx.Now = now
	ctx.Revoked = s.Revoked
	ctx.Revalidate = s.Revalidate
	ctx.RevocationView = s.RevocationView
	return ctx
}

// verifyContext builds a throwaway verification context from the
// server's configured clock, revocation hooks, and proof cache. It
// needs no lock — those fields are set before serving — so signature
// work can run outside s.mu; portable verdicts still land in the
// shared ProofCache where the locked dispatch path finds them.
func (s *Server) verifyContext() *core.VerifyContext {
	now := time.Now()
	if s.Clock != nil {
		now = s.Clock()
	}
	cache := s.Cache
	if cache == nil {
		cache = core.SharedProofCache()
	}
	ctx := core.NewVerifyContext()
	ctx.Cache = cache
	ctx.Now = now
	ctx.Revoked = s.Revoked
	ctx.Revalidate = s.Revalidate
	ctx.RevocationView = s.RevocationView
	return ctx
}

// handleProofSubmit is the proofRecipient (Figure 4, step n): parse,
// verify once, and file the proof under its subject.
func (s *Server) handleProofSubmit(req *callRequest, resp *callResponse) *callResponse {
	var args submitArgs
	if err := gob.NewDecoder(bytes.NewReader(req.Args)).Decode(&args); err != nil {
		resp.Kind = kindError
		resp.Err = fmt.Sprintf("rmi: decode proof submit: %v", err)
		return resp
	}
	if err := s.AcceptProof(args.Proof); err != nil {
		resp.Kind = kindError
		resp.Err = err.Error()
		return resp
	}
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(submitReply{Stored: true})
	resp.Kind = kindOK
	resp.Result = buf.Bytes()
	return resp
}

// AcceptProof parses, verifies, and files a transport-encoded proof;
// exported so colocated gateways and tests can install proofs
// directly.
func (s *Server) AcceptProof(raw []byte) error {
	p, err := core.ParseProofPooled(raw)
	if err != nil {
		return fmt.Errorf("rmi: parse proof: %w", err)
	}
	s.mu.Lock()
	s.stats.ProofSubmits++
	s.stats.ProofVerifies++
	s.mu.Unlock()
	// Chain verify outside s.mu, with the certificate leaves' signature
	// checks batched across the verifier's worker pool. Portable verdicts land in the shared proof cache,
	// so later authorization walks over the filed proof are cache
	// hits; the lock below guards only filing the proof.
	vctx := s.verifyContext()
	if err := cert.VerifyChain(vctx, p); err != nil {
		return fmt.Errorf("rmi: proof does not verify: %w", err)
	}
	c := p.Conclusion()
	subj := c.Subject.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.proofs.add(subj, p, c.Validity.NotAfter, vctx.Now)
	return nil
}

// ForgetProofs drops the server's proof cache; the measurement
// harness uses it to isolate the proof parse+verify cost ("when ...
// we make the server forget its copy after each use", section 7.2).
func (s *Server) ForgetProofs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.proofs = newFiledProofs()
	s.vctx.Reset()
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ObjectIssuer reports the issuer protecting a registered object.
func (s *Server) ObjectIssuer(name string) (principal.Principal, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[name]
	if !ok || o.open {
		return nil, false
	}
	return o.issuer, true
}

// zeroKey reports whether a public key is absent.
func zeroKey(k sfkey.PublicKey) bool { return len(k.Raw) == 0 }
