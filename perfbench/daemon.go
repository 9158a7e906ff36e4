package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one sf-* process the benchmark started. Its standard error
// is copied to a log file and scanned line by line, so readiness is
// decided by the daemon's own "listening" lines rather than by
// probing its ports.
type daemon struct {
	name  string
	cmd   *exec.Cmd
	addr  string // service listener host:port
	admin string // admin listener host:port

	mu      sync.Mutex
	lines   []string
	changed chan struct{} // closed and replaced on every new line
	exited  chan struct{} // closed once stderr reaches EOF
}

// freePort reserves a loopback port for a daemon. The daemons need
// their peers' addresses on the command line before any of them runs,
// so the ports are chosen here: below the kernel's ephemeral range, so
// no outgoing connection can take one between this check and the
// daemon's bind, and never the same one twice in a run.
func (r *run) freePort() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextPort == 0 {
		lo := 32768
		if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
			if f := strings.Fields(string(raw)); len(f) == 2 {
				if v, err := strconv.Atoi(f[0]); err == nil {
					lo = v
				}
			}
		}
		r.portLimit = lo
		r.nextPort = 10000 + os.Getpid()%(lo-10000)
	}
	for tries := 0; tries < r.portLimit-10000; tries++ {
		p := r.nextPort
		if r.nextPort++; r.nextPort >= r.portLimit {
			r.nextPort = 10000
		}
		addr := "127.0.0.1:" + strconv.Itoa(p)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port below %d", r.portLimit)
}

// startDaemon runs bin with args, logging to logPath.
func startDaemon(name, bin, logPath, addr, admin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// A benchmark killed mid-run must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, addr: addr, admin: admin, changed: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(d.exited)
		defer logf.Close()
		sc := bufio.NewScanner(io.TeeReader(stderr, logf))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			close(d.changed)
			d.changed = make(chan struct{})
			d.mu.Unlock()
		}
	}()
	return d, nil
}

// waitLog blocks until a log line containing substr appears at or
// after line index from, and returns that line's index.
func (d *daemon) waitLog(substr string, from int, timeout time.Duration) (int, error) {
	deadline := time.After(timeout)
	for {
		d.mu.Lock()
		for i := from; i < len(d.lines); i++ {
			if strings.Contains(d.lines[i], substr) {
				d.mu.Unlock()
				return i, nil
			}
		}
		from = len(d.lines)
		changed := d.changed
		d.mu.Unlock()
		select {
		case <-changed:
		case <-d.exited:
			return 0, fmt.Errorf("%s exited before logging %q: %s", d.name, substr, d.tail())
		case <-deadline:
			return 0, fmt.Errorf("%s did not log %q within %s: %s", d.name, substr, timeout, d.tail())
		}
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.lines)
	if n > 5 {
		return strings.Join(d.lines[n-5:], " | ")
	}
	return strings.Join(d.lines, " | ")
}

// stop kills the process and waits for it to be reaped. The
// benchmark discards every daemon's state, so a graceful drain would
// only add its timeouts to the run.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
	_ = d.cmd.Wait() // the exit status of a killed daemon says nothing
}

// procStat is one daemon's resource reading from /proc.
type procStat struct {
	cpu    time.Duration // user + system CPU so far
	peakKB int64         // VmHWM: peak resident set
}

func (d *daemon) proc() (procStat, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return procStat{}, err
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing paren are fixed: state is field 3, utime 14, stime 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("%s: short /proc stat", d.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("%s: bad /proc stat", d.name)
	}
	out := procStat{cpu: time.Duration(ut+st) * time.Second / clockTicks}
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return procStat{}, fmt.Errorf("%s: bad VmHWM", d.name)
			}
			out.peakKB = kb
		}
	}
	return out, nil
}

// metrics is one scrape of a daemon's /metrics: series (name plus
// label set, as printed) to value.
type metrics map[string]float64

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) scrape() (metrics, error) {
	resp, err := scrapeClient.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("%s metrics: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s metrics: status %d", d.name, resp.StatusCode)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sub returns the per-series difference after - before.
func (after metrics) sub(before metrics) metrics {
	out := metrics{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
