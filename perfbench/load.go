package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// admitLoad drives admits through the mesh's gateway and records
// their outcome. In a traced run every traceEvery-th admit, up to
// traceCap of them, carries an Sf-Trace header naming a client span
// of the generator's own, so that span is the root of the trace the
// daemons record; the other admits are untraced and give the
// reference latency for trace.overhead_ratio.
type admitLoad struct {
	m   *mesh
	rep *report

	traceEvery, traceCap int64
	seq, tracedN         atomic.Int64

	// probeOps counts admits sent outside the closed loop inside the
	// timed part (warm-churn's victim probes).
	probeOps int64

	mu        sync.Mutex
	lat       []float64 // untraced admit latency, ms
	tracedLat []float64 // traced admit latency, ms
	roots     []obs.Span
}

// one admits p; any answer but 200 is a failed operation.
func (l *admitLoad) one(p *loadgen.Synthetic) {
	hdr, root := "", obs.Span{}
	if l.traceEvery > 0 && l.seq.Add(1)%l.traceEvery == 0 && l.tracedN.Add(1) <= l.traceCap {
		root = obs.Span{Trace: obs.NewTraceID(), ID: obs.NewTraceID(), Name: "generator.admit"}
		hdr = root.Trace + "-" + root.ID
	}
	start := time.Now()
	status, lat, err := l.m.admit(p, hdr)
	l.rep.attempt()
	if err != nil || status != http.StatusOK {
		l.rep.violate("admit %s: status %d: %v", p.Owner, status, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if hdr == "" {
		l.lat = append(l.lat, ms(lat))
		return
	}
	// The root span covers the whole client call, signing included,
	// so every daemon span of the trace nests inside it.
	root.Start, root.Duration = start, time.Since(start)
	l.roots = append(l.roots, root)
	l.tracedLat = append(l.tracedLat, ms(lat))
}

// loop runs workers closed-loop clients until the deadline or until
// next reports no more work. Each client sends its next admit only
// after the previous one completed.
func (l *admitLoad) loop(workers int, until time.Time, next func() (*loadgen.Synthetic, bool)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				p, ok := next()
				if !ok {
					return
				}
				l.one(p)
			}
		}()
	}
	wg.Wait()
}

// ops is the number of admits attempted in the timed part: the
// loop's, plus probeOps.
func (l *admitLoad) ops() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.lat)+len(l.tracedLat)) + l.probeOps
}

// window is the daemons' resource use and metric deltas over the
// timed part of a run.
type window struct {
	ds      []*daemon
	before  []metrics
	delta   []metrics
	cpu     []time.Duration
	peakKB  []int64
	procs0  []procStat
	t0      time.Time
	elapsed time.Duration
}

func openWindow(ds []*daemon) (*window, error) {
	w := &window{ds: ds}
	for _, d := range ds {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		p, err := d.proc()
		if err != nil {
			return nil, err
		}
		w.before = append(w.before, m)
		w.procs0 = append(w.procs0, p)
	}
	w.t0 = time.Now()
	return w, nil
}

func (w *window) close() error {
	w.elapsed = time.Since(w.t0)
	for i, d := range w.ds {
		p, err := d.proc()
		if err != nil {
			return err
		}
		m, err := d.scrape()
		if err != nil {
			return err
		}
		w.cpu = append(w.cpu, p.cpu-w.procs0[i].cpu)
		w.peakKB = append(w.peakKB, p.peakKB)
		w.delta = append(w.delta, m.sub(w.before[i]))
	}
	return nil
}

// sum adds series name over the daemons at the given indices.
func (w *window) sum(name string, idx ...int) float64 {
	var s float64
	for _, i := range idx {
		s += w.delta[i][name]
	}
	return s
}

// histMeanMS is the mean of histogram name over the daemons at idx.
func (w *window) histMeanMS(name string, idx ...int) float64 {
	return ratio(w.sum(name+"_sum", idx...)*1000, w.sum(name+"_count", idx...))
}

func (w *window) cpuMS(idx ...int) float64 {
	var s time.Duration
	for _, i := range idx {
		s += w.cpu[i]
	}
	return ms(s)
}

func (w *window) rssMB() float64 {
	var kb int64
	for _, k := range w.peakKB {
		kb += k
	}
	return float64(kb) / 1024
}

// setupRepeated runs setup n times, tearing down each instance but
// the last, and reports the median set-up time as setup_s: one set-up
// is a single sample of a noisy, disk- and scheduler-bound cost.
func setupRepeated[T any](rep *report, n int, setup func() (T, error), teardown func(T)) (T, error) {
	var v T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(v)
		}
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", "s", median(times))
	return v, nil
}
