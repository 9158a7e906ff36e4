package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Daemon indexes in mesh.daemons() and the window built over them.
const (
	iDirA = iota
	iDirB
	iDB
	iGW
)

// meshLayers reports the per-layer counters and histogram means of a
// mesh workload's timed part, each divided by the admits attempted
// where the name says per_op.
func meshLayers(rep *report, w *window, ops float64) {
	gw, db, dirs := []int{iGW}, []int{iDB}, []int{iDirA, iDirB}
	perOp := func(v float64) float64 { return ratio(v, ops) }

	queries := w.sum("sf_prover_remote_queries_total", gw...)
	rep.set("prover.remote_queries_per_op", "count", perOp(queries))
	rep.set("prover.remote_hit_ratio", "ratio", ratio(w.sum("sf_prover_remote_certs_total", gw...), queries))
	rep.set("prover.remote_ms_mean", "ms", w.histMeanMS("sf_prover_remote_seconds", gw...))
	rep.set("prover.negcache_evicted_per_op", "count", perOp(w.sum("sf_prover_negcache_evicted_total", gw...)))
	rep.set("prover.traversals_per_op", "count", perOp(w.sum("sf_prover_traversals_total", gw...)))
	rep.set("certdir.queries_per_op", "count", perOp(w.sum("sf_certdir_queries_total", dirs...)))

	admitSum := w.sum("sf_admit_cold_seconds_sum", gw...) + w.sum("sf_admit_warm_seconds_sum", gw...)
	admitN := w.sum("sf_admit_cold_seconds_count", gw...) + w.sum("sf_admit_warm_seconds_count", gw...)
	rep.set("gateway.admit_ms_mean", "ms", ratio(admitSum*1000, admitN))
	rep.set("rmi.calls_per_op", "count", perOp(w.sum("sf_rmi_calls_total", db...)))
	rep.set("rmi.auth_checks_per_op", "count", perOp(w.sum("sf_rmi_auth_checks_total", db...)))
	rep.set("core.cache_hit_ratio.gateway", "ratio", hitRatio(w, iGW))
	rep.set("core.cache_hit_ratio.db", "ratio", hitRatio(w, iDB))
	rep.set("gateway.cpu_ms_per_op", "ms", perOp(w.cpuMS(gw...)))
	rep.set("emaildb.cpu_ms_per_op", "ms", perOp(w.cpuMS(db...)))

	rep.set("core.cache_misses_per_op.db", "count", perOp(w.sum("sf_proofcache_misses_total", db...)))
	rep.set("core.epoch_bumps.db", "count", w.sum("sf_proofcache_epoch", db...))
	dirLayers(rep, w, dirs...)
	rep.set("certdir.crl_follow_pulled", "count", w.sum("sf_crl_follow_pulled_total", db...))
	rep.set("certdir.cpu_ms_per_op", "ms", perOp(w.cpuMS(dirs...)))
}

// dirLayers reports the directory write-path and gossip layers.
func dirLayers(rep *report, w *window, dirs ...int) {
	rep.set("certdir.crl_install_ms_mean", "ms", w.histMeanMS("sf_crl_install_seconds", dirs...))
	rep.set("certdir.publish_ack_ms_mean", "ms", w.histMeanMS("sf_publish_ack_seconds", dirs...))
	rounds := w.sum("sf_gossip_rounds_total", dirs...)
	rep.set("certdir.gossip_rounds", "count", rounds)
	rep.set("certdir.gossip_round_ms_mean", "ms", w.histMeanMS("sf_gossip_round_seconds", dirs...))
	rep.set("certdir.gossip_bytes_per_round", "bytes", ratio(w.sum("sf_gossip_digest_bytes_total", dirs...), rounds))
}

func hitRatio(w *window, i int) float64 {
	hits := w.delta[i]["sf_proofcache_hits_total"]
	return ratio(hits, hits+w.delta[i]["sf_proofcache_misses_total"])
}

// traceDump is the /debug/trace reply.
type traceDump struct {
	Dropped uint64     `json:"dropped"`
	Spans   []obs.Span `json:"spans"`
}

func fetchSpans(d *daemon) (traceDump, error) {
	var out traceDump
	resp, err := scrapeClient.Get("http://" + d.admin + "/debug/trace")
	if err != nil {
		return out, fmt.Errorf("%s trace: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s trace: status %d", d.name, resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// traceLayers collects the daemons' spans of the generator-rooted
// traces and reports self and dispatch times, the spans the rings
// dropped, and the traced/untraced admit latency ratio.
func traceLayers(rep *report, ds []*daemon, l *admitLoad) error {
	roots := map[string]bool{}
	all := append([]obs.Span(nil), l.roots...)
	for _, s := range l.roots {
		roots[s.Trace] = true
	}
	var dropped uint64
	for _, d := range ds {
		dump, err := fetchSpans(d)
		if err != nil {
			return err
		}
		dropped += dump.Dropped
		for _, s := range dump.Spans {
			if roots[s.Trace] {
				all = append(all, s)
			}
		}
	}
	kids := map[string][]obs.Span{}
	for _, s := range all {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var gwSelf, rmiDur, queryDur []float64
	for _, s := range all {
		switch {
		case s.Name == "gateway.admit":
			gwSelf = append(gwSelf, ms(selfTime(s, kids[s.ID])))
		case strings.HasPrefix(s.Name, "rmi."):
			rmiDur = append(rmiDur, ms(s.Duration))
		case s.Name == "certdir.query":
			queryDur = append(queryDur, ms(s.Duration))
		}
	}
	rep.set("gateway.self_ms_p50", "ms", median(gwSelf))
	rep.set("rmi.dispatch_ms_p50", "ms", median(rmiDur))
	rep.set("certdir.query_ms_p50", "ms", median(queryDur))
	rep.set("trace.spans_dropped", "count", float64(dropped))
	rep.set("trace.traced_ops", "count", float64(len(l.roots)))
	rep.set("trace.overhead_ratio", "ratio", ratio(median(l.tracedLat), median(l.lat)))
	return nil
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (children may overlap one another).
func selfTime(s obs.Span, kids []obs.Span) time.Duration {
	end := s.Start.Add(s.Duration)
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Duration)
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration - covered
}
