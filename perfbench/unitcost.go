package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/emaildb"
	"repro/internal/httpauth"
	"repro/internal/loadgen"
	"repro/internal/sexp"
	"repro/internal/sfkey"
)

// Unit-cost call counts: enough calls that each mean is stable to a
// few percent, few enough that the pass takes well under a second.
const (
	unitSign   = 512
	unitParse  = 2048
	unitVerify = 1024
	unitBatch  = 1024 // four 256-signature batches
	unitChain  = 512
)

// unitCosts times public layer functions in this process on the
// workload's own artifacts and reports each as a mean time per call.
// They are unit costs only: a layer's share of a daemon's time is not
// derived from them.
func unitCosts(rep *report, g *loadgen.Graph) error {
	ps := g.Principals
	now := time.Now()
	v := core.Between(now.Add(-time.Minute), now.Add(time.Hour))

	// client.sign_us: request signing, as the generator does per admit.
	wires := make([][]byte, 0, unitSign)
	t0 := time.Now()
	for i := 0; i < unitSign; i++ {
		p := ps[i%len(ps)]
		req, err := http.NewRequest(http.MethodGet, "http://gateway/mail?owner="+p.Owner+"&folder=inbox", nil)
		if err != nil {
			return err
		}
		reqPrin, _, err := httpauth.RequestPrincipal(req)
		if err != nil {
			return err
		}
		rp, err := cert.Delegate(p.Key, reqPrin, p.Prin, emaildb.OwnerTag(p.Owner), v)
		if err != nil {
			return err
		}
		wires = append(wires, rp.Sexp().Transport())
	}
	rep.set("client.sign_us", "us", us(time.Since(t0), unitSign))

	// sexp.parse_request_us: the gateway's parse of the request-proof
	// header bytes.
	t0 = time.Now()
	for i := 0; i < unitParse; i++ {
		if _, err := core.ParseProof(wires[i%len(wires)]); err != nil {
			return fmt.Errorf("unit parse: %w", err)
		}
	}
	rep.set("sexp.parse_request_us", "us", us(time.Since(t0), unitParse))

	// sfkey.verify_us: one Ed25519 check of a graph certificate.
	msgs := make([][]byte, len(g.Certs))
	for i, c := range g.Certs {
		msgs[i] = sexp.List(sexp.String("cert-body"), c.Body.Sexp()).Canonical()
	}
	t0 = time.Now()
	for i := 0; i < unitVerify; i++ {
		c := g.Certs[i%len(g.Certs)]
		if !c.Signer.Verify(msgs[i%len(g.Certs)], c.Signature) {
			return fmt.Errorf("unit verify: certificate %d does not verify", i%len(g.Certs))
		}
	}
	rep.set("sfkey.verify_us", "us", us(time.Since(t0), unitVerify))

	// sfkey.batch_verify_us_per_sig: 256-certificate batches.
	var bv sfkey.BatchVerifier
	t0 = time.Now()
	for i := 0; i < unitBatch; i++ {
		c := g.Certs[i%len(g.Certs)]
		bv.Add(c.Signer, msgs[i%len(g.Certs)], c.Signature)
		if bv.Len() == 256 {
			if bad := bv.Verify(); len(bad) > 0 {
				return fmt.Errorf("unit batch: %d bad signatures", len(bad))
			}
			bv.Reset()
		}
	}
	rep.set("sfkey.batch_verify_us_per_sig", "us", us(time.Since(t0), unitBatch))

	// cert.verify_chain_cold_us: handoff, grant and org root as one
	// chain, checked against a fresh proof cache each time.
	chains := make([]core.Proof, 0, 64)
	for i := 0; i < 64 && i < len(ps); i++ {
		p := ps[i]
		up, err := core.NewTransitivity(p.Grant, g.OrgRoots[p.Org])
		if err != nil {
			return err
		}
		chain, err := core.NewTransitivity(p.Handoff, up)
		if err != nil {
			return err
		}
		chains = append(chains, chain)
	}
	t0 = time.Now()
	for i := 0; i < unitChain; i++ {
		ctx := core.NewVerifyContext()
		ctx.Cache = core.NewProofCache(64)
		if err := cert.VerifyChain(ctx, chains[i%len(chains)]); err != nil {
			return fmt.Errorf("unit chain: %w", err)
		}
	}
	rep.set("cert.verify_chain_cold_us", "us", us(time.Since(t0), unitChain))
	return nil
}

func us(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
