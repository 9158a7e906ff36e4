// Command perfbench is the repository's benchmark. It starts
// sf-certd, sf-dbserver and sf-gateway as separate processes on
// loopback, drives one named workload against them from this process
// with at most two concurrent clients, checks every answer while the
// load runs, and prints one JSON result line. run.py builds the
// daemons and this program from the tree under test and passes its
// arguments through; NOTES.md describes the workloads and metrics.
//
// Usage:
//
//	perfbench -spec BENCHMARK.json -bin <dir of sf-* binaries> -work <scratch dir> \
//	    --workload cold-discovery --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, with
// --trace 1 the per-layer ones. Any failed correctness gate prints
// the violations to standard error and exits 1 after the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome; it is safe for concurrent
// use.
type report struct {
	mu                sync.Mutex
	attempted, failed int64
	violations        []string // the first maxViolations failures
	metrics           map[string]metric
}

// maxViolations bounds how many failures one run lists; the count of
// failed operations is always complete.
const maxViolations = 20

func (rep *report) set(name, unit string, v float64) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.metrics == nil {
		rep.metrics = map[string]metric{}
	}
	rep.metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts one operation.
func (rep *report) attempt() {
	rep.mu.Lock()
	rep.attempted++
	rep.mu.Unlock()
}

// violate records a failed operation or correctness gate.
func (rep *report) violate(format string, args ...any) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.failed++
	if len(rep.violations) < maxViolations {
		rep.violations = append(rep.violations, fmt.Sprintf(format, args...))
	}
}

// spec is BENCHMARK.json's list of metrics: the names and units each
// section must report.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// selectSection keeps exactly the metrics of one section. An end-to-end
// metric a workload failed to measure is a bug; a per-layer metric of
// a layer the workload leaves idle reads 0.
func (rep *report) selectSection(sp spec, traced bool) error {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
		rep.set("ops_failed_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	}
	out := map[string]metric{}
	for _, s := range want {
		m, ok := rep.metrics[s.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("end-to-end metric %s not measured", s.Name)
		case !ok:
			m = metric{Unit: s.Unit}
		case m.Unit != s.Unit:
			return fmt.Errorf("metric %s has unit %s, want %s", s.Name, m.Unit, s.Unit)
		}
		out[s.Name] = m
	}
	rep.metrics = out
	return nil
}

// A workload runs its set-up and timed part and returns the world it
// generated, whose artifacts the unit-cost pass of a traced run uses.
var workloads = map[string]func(*run, *report) (*loadgen.Graph, error){
	"cold-discovery": coldDiscovery,
	"warm-zipf":      warmZipf,
	"warm-churn":     warmChurn,
	"dir-bootstrap":  dirBootstrap,
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark description naming the metrics to report")
	bin := flag.String("bin", "", "directory holding the sf-certd, sf-dbserver and sf-gateway binaries")
	work := flag.String("work", "", "scratch directory for daemon data and logs (emptied first)")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed duration of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		die(2, "need -bin, -work, --seconds >= 1 and --workload in %v", workloadNames())
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		die(2, "%v", err)
	}
	if err := os.RemoveAll(*work); err != nil {
		die(2, "%v", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		die(2, "%v", err)
	}
	r := &run{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	// An interrupted benchmark still stops its daemons.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		r.stopAll()
		os.Exit(130)
	}()

	rep := &report{}
	g, err := wl(r, rep)
	r.stopAll()
	if err == nil && r.trace {
		// With the daemons gone, the unit costs have the CPUs to
		// themselves.
		err = unitCosts(rep, g)
	}
	if err == nil {
		err = rep.selectSection(sp, r.trace)
	}
	if err == nil && rep.attempted < 1 {
		err = fmt.Errorf("no operation attempted")
	}
	if err != nil {
		die(1, "%s: %v", *name, err)
	}
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "perfbench: violation: %s\n", v)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		die(1, "%v", err)
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// die reports a run that cannot produce a result and exits.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
