package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// daemon is one pccsd child process on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	debug    string // pprof listener, http://127.0.0.1:port
	log      *bytes.Buffer
	exited   chan struct{}
	waitErr  error
	started  time.Time
	readyDur time.Duration
}

// freePorts asks the kernel for two distinct unused loopback ports. Both
// listeners are open at once, so the two ports differ; another process can
// still take one before the daemon binds it, which startDaemon retries.
func freePorts() (int, int, error) {
	var ports [2]int
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports[0], ports[1], nil
}

// startDaemon execs pccsd and waits until /healthz answers; the time from
// exec to that answer is the daemon's readiness time. A daemon that exits
// before it is ready (its port was taken meanwhile) is started again on
// fresh ports, up to three times.
func startDaemon(bin, models string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = tryStartDaemon(bin, models); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryStartDaemon(bin, models string) (*daemon, error) {
	port, dport, err := freePorts()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		debug:  fmt.Sprintf("http://127.0.0.1:%d", dport),
		log:    &bytes.Buffer{},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport),
		"-models", models)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// Should the benchmark die without stopping it, the kernel ends the
	// daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pccsd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := d.started.Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyDur = time.Since(d.started)
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pccsd exited before ready: %v\n%s", d.waitErr, d.log)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("pccsd not ready after 30s\n%s", d.log)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the drain; anything but a clean exit
// with status 0 is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal pccsd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("pccsd did not exit within 60s of SIGTERM\n%s", d.log)
	}
	if d.waitErr != nil {
		return fmt.Errorf("pccsd exit after SIGTERM: %v\n%s", d.waitErr, d.log)
	}
	return nil
}

// kill ends the process without the drain (error paths only) and waits.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// procCPU is the daemon's user+system CPU time so far.
func (d *daemon) procCPU() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// memStats are the daemon's cumulative heap counters as pprof reports them.
type memStats struct {
	TotalAlloc, Mallocs, NumGC int64
}

// readMemStats scrapes /debug/pprof/heap?debug=1, whose trailer prints
// runtime.MemStats.
func readMemStats(c *http.Client, debugBase string) (memStats, error) {
	body, err := getText(c, debugBase+"/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	var ms memStats
	found := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "TotalAlloc":
			dst = &ms.TotalAlloc
		case "Mallocs":
			dst = &ms.Mallocs
		case "NumGC":
			dst = &ms.NumGC
		default:
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return memStats{}, fmt.Errorf("pprof %s: %w", name, err)
		}
		*dst = n
		found++
	}
	if found != 3 {
		return memStats{}, fmt.Errorf("pprof heap trailer lacks MemStats (%d of 3 fields)", found)
	}
	return ms, nil
}

// promSample is one scraped /metrics line: family name, labels, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrapeMetrics parses the Prometheus text exposition of /metrics.
func scrapeMetrics(c *http.Client, base string) ([]promSample, error) {
	body, err := getText(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	var out []promSample
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// metric returns the sum of the samples of a family whose labels include
// every given label.
func metric(samples []promSample, name string, labels ...string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.labels[labels[i]] != labels[i+1] {
				match = false
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

func getText(c *http.Client, url string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// accounting is a reading of every daemon-side counter, taken at the edges
// of the timed window.
type accounting struct {
	at      time.Time
	cpu     time.Duration
	mem     memStats
	metrics []promSample
}

func (d *daemon) account(c *http.Client) (accounting, error) {
	var a accounting
	var err error
	if a.metrics, err = scrapeMetrics(c, d.base); err != nil {
		return a, err
	}
	if a.mem, err = readMemStats(c, d.debug); err != nil {
		return a, err
	}
	if a.cpu, err = d.procCPU(); err != nil {
		return a, err
	}
	a.at = time.Now()
	return a, nil
}

// routeMeanUS is the daemon-side mean time of a route between two
// readings, from pccsd_request_duration_seconds; 0 when the route saw no
// request.
func routeMeanUS(before, after accounting, route string) float64 {
	n := metric(after.metrics, "pccsd_request_duration_seconds_count", "endpoint", route) -
		metric(before.metrics, "pccsd_request_duration_seconds_count", "endpoint", route)
	if n == 0 {
		return 0
	}
	sum := metric(after.metrics, "pccsd_request_duration_seconds_sum", "endpoint", route) -
		metric(before.metrics, "pccsd_request_duration_seconds_sum", "endpoint", route)
	return sum / n * 1e6
}

// non2xx counts responses outside 2xx between two readings.
func non2xx(before, after accounting) float64 {
	count := func(a accounting) float64 {
		n := 0.0
		for _, s := range a.metrics {
			if s.name == "pccsd_requests_total" && !strings.HasPrefix(s.labels["code"], "2") {
				n += s.value
			}
		}
		return n
	}
	return count(after) - count(before)
}
