package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/certdir"
	"repro/internal/loadgen"
)

// dirBootstrap: one directory preloaded with N certificates in set-up;
// in the timed part fresh sf-certd processes with empty data
// directories join it one after another with -peer, each timed from
// process start until it serves all N.
func dirBootstrap(r *run, rep *report) (*loadgen.Graph, error) {
	g, err := world(r.seed, bootPrincipals, 1)
	if err != nil {
		return nil, err
	}
	n := float64(len(g.Certs))
	src, err := setupRepeated(rep, setups, func() (*daemon, error) {
		return r.preload(g.Certs)
	}, r.stopOne)
	if err != nil {
		return nil, err
	}
	srcURL := "http://" + src.addr

	w, err := openWindow([]*daemon{src})
	if err != nil {
		return nil, err
	}
	var joins, tracedJoins, rates, cpus, peakMB, walPerCert, pulled []float64
	verified := -1.0
	var dropped uint64
	until := time.Now().Add(r.seconds)
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		// Traced runs alternate joiners that record every trace with
		// untraced ones, for trace.overhead_ratio.
		sample := untracedSample
		if r.trace && i%2 == 1 {
			sample = "1"
		}
		src0, err := src.proc()
		if err != nil {
			return nil, err
		}
		j, took, err := r.join(srcURL, sample, n)
		if err != nil {
			return nil, err
		}
		rep.attempt()
		src1, err := src.proc()
		if err != nil {
			return nil, err
		}
		m, err := j.scrape()
		if err != nil {
			return nil, err
		}
		p, err := j.proc()
		if err != nil {
			return nil, err
		}
		adopted, err := snapshotAdopted(j)
		if err != nil {
			return nil, err
		}
		if r.trace {
			dump, err := fetchSpans(j)
			if err != nil {
				return nil, err
			}
			dropped += dump.Dropped
		}
		r.stopOne(j)
		// Gates: the joiner serves exactly N certificates, and checked
		// every signature itself rather than trusting the source.
		if got := m["sf_certdir_stored"]; got != n {
			rep.violate("joiner %d serves %v certificates, want %v", i, got, n)
		}
		misses := m["sf_proofcache_misses_total"]
		if misses < n {
			rep.violate("joiner %d checked %v signatures for %v certificates", i, misses, n)
		}
		if verified < 0 || misses < verified {
			verified = misses
		}
		if sample == untracedSample {
			joins = append(joins, ms(took))
		} else {
			tracedJoins = append(tracedJoins, ms(took))
		}
		rates = append(rates, n/took.Seconds())
		cpus = append(cpus, ms(p.cpu+src1.cpu-src0.cpu)/n)
		peakMB = append(peakMB, float64(p.peakKB)/1024)
		walPerCert = append(walPerCert, m["sf_certdir_wal_size_bytes"]/n)
		// The pulled counter includes the snapshot's certificates.
		pulled = append(pulled, m["sf_certdir_gossip_pulled_total"]-adopted)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	rep.set("latency_p50_ms", "ms", median(joins))
	rep.set("cpu_ms_per_op", "ms", median(cpus))
	rep.set("rss_mb", "MB", w.rssMB()+median(peakMB))
	if !r.trace {
		return g, nil
	}
	rep.set("ops_per_s", "1/s", median(rates))
	rep.set("bootstrap_s", "s", median(joins)/1000)
	rep.set("certdir.bootstrap_verified", "count", verified)
	rep.set("certdir.bootstrap_gossip_pulled", "count", median(pulled))
	rep.set("certdir.wal_bytes_per_cert", "bytes", median(walPerCert))
	rep.set("certdir.cpu_ms_per_op", "ms", median(cpus))
	dirLayers(rep, w, 0)
	dump, err := fetchSpans(src)
	if err != nil {
		return nil, err
	}
	rep.set("trace.spans_dropped", "count", float64(dropped+dump.Dropped))
	rep.set("trace.traced_ops", "count", float64(len(tracedJoins)))
	rep.set("trace.overhead_ratio", "ratio", ratio(median(tracedJoins), median(joins)))
	return g, nil
}

// preload starts the source directory and publishes certs to it.
func (r *run) preload(certs []*cert.Cert) (*daemon, error) {
	addr, err := r.freePort()
	if err != nil {
		return nil, err
	}
	admin, err := r.freePort()
	if err != nil {
		return nil, err
	}
	d, err := r.startDir(addr, admin, untracedSample)
	if err != nil {
		return nil, err
	}
	cli := certdir.NewClient("http://" + addr)
	cli.HTTP = newHTTPClient()
	if err := publishAll(certs, func(*cert.Cert) *certdir.Client { return cli }); err != nil {
		return nil, err
	}
	if _, err := waitStored(d, float64(len(certs)), time.Minute); err != nil {
		return nil, err
	}
	return d, nil
}

// join starts a directory with an empty data directory peered with
// src and returns it once it serves n certificates, with the time
// from process start.
func (r *run) join(src, sample string, n float64) (*daemon, time.Duration, error) {
	addr, err := r.freePort()
	if err != nil {
		return nil, 0, err
	}
	admin, err := r.freePort()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	j, err := r.startDir(addr, admin, sample, "-peer", src)
	if err != nil {
		return nil, 0, err
	}
	// Block on the bootstrap's own log line before polling, so the
	// joiner's CPUs are not spent answering metric scrapes while it
	// verifies.
	if _, err := j.waitLog("snapshot bootstrap", 0, time.Minute); err != nil {
		return nil, 0, err
	}
	if _, err := waitStored(j, n, time.Minute); err != nil {
		return nil, 0, err
	}
	return j, time.Since(t0), nil
}

// snapshotAdopted waits for the joiner's snapshot bootstrap to report
// and returns how many certificates it adopted (0 when it fell back
// to gossip).
func snapshotAdopted(j *daemon) (float64, error) {
	i, err := j.waitLog("snapshot bootstrap", 0, 10*time.Second)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	line := j.lines[i]
	j.mu.Unlock()
	var n float64
	if k := strings.Index(line, "adopted "); k >= 0 {
		if _, err := fmt.Sscanf(line[k:], "adopted %g certs", &n); err != nil {
			return 0, fmt.Errorf("%s: %q: %w", j.name, line, err)
		}
	}
	return n, nil
}

// waitStored polls d's metrics until it stores at least n
// certificates.
func waitStored(d *daemon, n float64, timeout time.Duration) (metrics, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		if m["sf_certdir_stored"] >= n {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s stores %v certificates after %s, want %v", d.name, m["sf_certdir_stored"], timeout, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
