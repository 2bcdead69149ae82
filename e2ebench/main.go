// Command e2ebench is the end-to-end benchmark of the PCCS daemon. It
// starts the pccsd built from this checkout as a child process on
// loopback, drives it with closed-loop clients for one workload, checks
// every answer against its own reference evaluator, reads the daemon's
// resource use from outside (/proc, pprof, /metrics), and prints one JSON
// result as its last line of output.
//
// Run it through run.sh from the root of a checkout, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload predict_hot --seed 1 --seconds 30 --trace 0
//
// --trace 1 measures the same workload untraced and then traced, and adds
// in-process measurements of each layer; it reports per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/processorcentricmodel/pccs/internal/platform"
)

// setups is how many times a run starts a daemon and brings it to the end
// of warm-up; setup_s is their median. The last one serves the run.
const setups = 9

func main() {
	var (
		name    = flag.String("workload", "", "predict_hot, decide or calibrate")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "length of the timed part of the run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin     = flag.String("pccsd", ".bench_build/pccsd", "pccsd binary to start")
		models  = flag.String("models", "models/pccs-models.json", "model artifact the daemon serves")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, bin: *bin, models: *models, out: *out}
	res, err := r.execute(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string
	models  string
	out     string

	tr      *tracer // nil outside the traced phase
	d       *daemon
	clients []*client
	checks  checks

	shipped      map[string]refModel // models served at start-up
	platformPeak float64             // calPlatform's peak bandwidth

	hotReqs   []predictReq
	hotBodies [][]byte
	versions  [2]refModel
	vlog      *versionLog
	published int
	probe     []predictReq
	jobs      []jobRecord
}

// phase is the tally of one timed stretch of traffic.
type phase struct {
	wall                     time.Duration
	lat                      []time.Duration
	units, failed, attempted int64
}

func (r *run) execute(w *workload) (*result, error) {
	b, err := platform.Get(calPlatform)
	if err != nil {
		return nil, err
	}
	r.platformPeak = b.PeakGBps()
	nclients := w.clients
	if nclients == 0 {
		nclients = min(2, runtime.NumCPU())
	}

	// Set-up, several times over: exec, readiness, connections, models
	// read, key set touched once.
	var setupTimes, readyTimes []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := r.setup(w, nclients, i == 0); err != nil {
			r.teardown()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		readyTimes = append(readyTimes, float64(r.d.readyDur)/1e6)
		if i < setups-1 {
			if err := r.teardown(); err != nil {
				return nil, err
			}
		}
	}
	sort.Float64s(setupTimes)
	sort.Float64s(readyTimes)

	// The load generator runs its clients on one OS thread, so it never
	// holds both CPUs while the daemon has work, and collects its own
	// garbage rarely, so its pauses stay out of the measured latencies.
	prevProcs := runtime.GOMAXPROCS(1)
	prevGC := debug.SetGCPercent(1000)
	r.runFor(w, w.warmup, false)

	res := &result{Metrics: map[string]value{}}
	var live phase
	var before, after accounting
	var overheadPct float64
	acctClient := r.clients[0].hc
	if before, err = r.d.account(acctClient); err != nil {
		r.teardown()
		return nil, err
	}
	if !r.traced {
		live = r.runFor(w, r.seconds, true)
	} else {
		// The same traffic untraced, then traced: the difference in
		// throughput is the tracing overhead.
		untraced := r.runFor(w, r.seconds/2, true)
		r.tr = newTracer()
		live = r.runFor(w, r.seconds/2, true)
		if live.units > 0 && untraced.units > 0 {
			overheadPct = 100 * (float64(untraced.units)/untraced.wall.Seconds()/
				(float64(live.units)/live.wall.Seconds()) - 1)
		}
		live.merge(untraced)
	}
	runtime.GOMAXPROCS(prevProcs)
	debug.SetGCPercent(prevGC)
	if after, err = r.d.account(acctClient); err != nil {
		r.teardown()
		return nil, err
	}
	rss, err := r.d.peakRSS()
	if err != nil {
		r.teardown()
		return nil, err
	}

	var layers map[string]value
	var in layerInputs
	if r.traced {
		in = r.layerInputs(w)
		layers, err = r.liveLayers(in, before, after, live, overheadPct, median(readyTimes))
		if err != nil {
			r.teardown()
			return nil, err
		}
	}
	var served refModel
	if !r.traced {
		if served, err = r.servedModel(); err != nil {
			r.teardown()
			return nil, err
		}
	}
	if err := r.teardown(); err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = live.attempted, live.failed
	if live.units == 0 {
		return nil, errors.New("no operation completed in the timed window")
	}
	if r.traced {
		probe, err := r.inProcessLayers(in)
		if err != nil {
			return nil, err
		}
		for k, v := range probe {
			layers[k] = v
		}
		res.Metrics = layers
		if err := writeSpans(filepath.Join(r.out, fmt.Sprintf("spans-%s-%d.json", w.name, r.seed)), r.tr.snapshot()); err != nil {
			return nil, err
		}
	} else {
		mae, err := heldoutMAE(served)
		if err != nil {
			return nil, err
		}
		lat := make([]float64, len(live.lat))
		for i, d := range live.lat {
			lat[i] = float64(d) / 1e6
		}
		sort.Float64s(lat)
		units := float64(live.units)
		res.Metrics = map[string]value{
			"setup_s":         {median(setupTimes), "s"},
			"p50_ms":          {median(lat), "ms"},
			"p99_ms":          {nearestRank(lat, 0.99), "ms"},
			"ops_per_s":       {units / live.wall.Seconds(), "ops/s"},
			"cpu_ms_per_op":   {float64(after.cpu-before.cpu) / 1e6 / units, "ms/op"},
			"alloc_kb_per_op": {float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / units, "KB/op"},
			"max_rss_mb":      {float64(rss) / (1 << 20), "MB"},
			"heldout_mae_pp":  {mae, "pp"},
		}
	}
	if bad := non2xx(before, after); bad > 0 && live.failed == 0 {
		r.checks.fail("daemon counted %g non-2xx responses the clients did not see fail", bad)
	}
	res.Correct = r.checks.count == 0
	for _, e := range r.checks.examples {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", e)
	}
	return res, nil
}

// setup starts a daemon and brings it to the end of warm-up.
func (r *run) setup(w *workload, nclients int, first bool) error {
	d, err := startDaemon(r.bin, r.models)
	if err != nil {
		return err
	}
	r.d = d
	r.clients = make([]*client, nclients)
	for i := range r.clients {
		r.clients[i] = newClient(i, d.base, r.seed)
	}
	shipped, err := r.readModels(r.clients[0], 0)
	if err != nil {
		return err
	}
	if first {
		r.shipped = shipped
		if err := w.prepare(r); err != nil {
			return err
		}
	}
	errs := make([]error, nclients)
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = w.touch(r, c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// teardown closes the clients' connections and stops the daemon; it must
// drain and exit with status 0.
func (r *run) teardown() error {
	if r.d == nil {
		return nil
	}
	for _, c := range r.clients {
		c.close()
	}
	err := r.d.stop()
	r.d = nil
	return err
}

// readModels returns the models the daemon serves, from GET /v1/models.
func (r *run) readModels(c *client, opID int64) (map[string]refModel, error) {
	code, body, _, err := c.traced(r.tr, "pccsd.models", opID, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr("models", code, http.StatusOK, body); err != nil {
		return nil, err
	}
	var list struct {
		Models map[string]refModel `json:"models"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("models: %w", err)
	}
	return list.Models, nil
}

// servedModel is the model the daemon serves for the calibrated PU at the
// end of the run: the shipped one, or the last one calibrate published.
func (r *run) servedModel() (refModel, error) {
	models, err := r.readModels(r.clients[0], 0)
	if err != nil {
		return refModel{}, err
	}
	m, ok := models[calPlatform+"/"+calPU]
	if !ok {
		return refModel{}, fmt.Errorf("daemon serves no %s/%s model", calPlatform, calPU)
	}
	return m, nil
}

// runFor drives every client in a closed loop for d. A client starts an op
// only if its mean op time so far still fits in what is left of d, so a
// run does not overshoot by a calibration job.
func (r *run) runFor(w *workload, d time.Duration, record bool) phase {
	if d <= 0 {
		return phase{}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		c.lat, c.units, c.failed, c.attempts = c.lat[:0], 0, 0, 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var busy time.Duration
			ops := 0
			for {
				elapsed := time.Since(start)
				if elapsed >= d || ops > 0 && elapsed+busy/time.Duration(ops) > d {
					return
				}
				opStart := time.Now()
				opID := r.tr.begin("client."+w.name, 0, 0)
				lat, units, err := w.op(r, c, opID)
				r.tr.end(opID)
				busy += time.Since(opStart)
				ops++
				c.attempts += units
				if err != nil {
					c.failed += max(units, 1)
					c.attempts += max(1-units, 0)
					fmt.Fprintf(os.Stderr, "e2ebench: %s op failed: %v\n", w.name, err)
					continue
				}
				c.units += units
				c.lat = append(c.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	if !record {
		return p
	}
	for _, c := range r.clients {
		p.lat = append(p.lat, c.lat...)
		p.units += c.units
		p.failed += c.failed
		p.attempted += c.attempts
	}
	return p
}

func (p *phase) merge(o phase) {
	p.wall += o.wall
	p.lat = append(p.lat, o.lat...)
	p.units += o.units
	p.failed += o.failed
	p.attempted += o.attempted
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// nearestRank is the q-quantile of sorted values by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
