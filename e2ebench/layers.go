package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"github.com/processorcentricmodel/pccs/internal/calib"
	"github.com/processorcentricmodel/pccs/internal/core"
	"github.com/processorcentricmodel/pccs/internal/platform"
	"github.com/processorcentricmodel/pccs/internal/sched"
	"github.com/processorcentricmodel/pccs/internal/server"
)

// Per-layer metrics of the traced run. The live ones come from the daemon
// (pprof, /metrics, job records) over the timed window; the in-process
// ones time calls into each layer's public functions, under spans, on
// inputs generated from the run's seed the way the workload makes them.

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"client", "pccsd", "server", "core", "sched", "calib", "soc"}

// routeProbe is how many requests of a route the traced run sends after
// the timed window when the workload itself did not use the route.
const routeProbe = 50

// liveLayers reads the daemon-side layer metrics; it runs before the
// daemon is stopped.
func (r *run) liveLayers(in layerInputs, before, after accounting, live phase, overheadPct float64, readyMS float64) (map[string]value, error) {
	c := r.clients[0]
	units := float64(live.units)
	hits := metric(after.metrics, "pccsd_cache_hits_total") - metric(before.metrics, "pccsd_cache_hits_total")
	misses := metric(after.metrics, "pccsd_cache_misses_total") - metric(before.metrics, "pccsd_cache_misses_total")
	out := map[string]value{
		"pccsd.ready_ms":         {readyMS, "ms"},
		"pccsd.mallocs_per_op":   {float64(after.mem.Mallocs-before.mem.Mallocs) / units, "count/op"},
		"pccsd.gc_per_kop":       {float64(after.mem.NumGC-before.mem.NumGC) / units * 1000, "count/kop"},
		"server.cache_hits":      {hits, "count"},
		"server.cache_misses":    {misses, "count"},
		"server.cache_hit_ratio": {hits / max(hits+misses, 1), "ratio"},
		"trace.overhead_pct":     {overheadPct, "%"},
	}

	// Routes the timed window did not use are measured on a fixed probe.
	probes := map[string]func(i int) (int, []byte, time.Duration, error){
		"/v1/predict": func(i int) (int, []byte, time.Duration, error) {
			return c.do(http.MethodPost, "/v1/predict", in.singles[i%len(in.singles)])
		},
		"/v1/schedule": func(i int) (int, []byte, time.Duration, error) {
			return c.do(http.MethodPost, "/v1/schedule", in.schedules[i%len(in.schedules)])
		},
		"/v1/models": func(i int) (int, []byte, time.Duration, error) {
			return c.do(http.MethodPost, "/v1/models", mustJSON(in.versions[i%2]))
		},
	}
	for _, route := range []string{"/v1/predict", "/v1/schedule", "/v1/models"} {
		mean := routeMeanUS(before, after, route)
		if mean == 0 {
			pre, err := r.d.account(c.hc)
			if err != nil {
				return nil, err
			}
			for i := 0; i < routeProbe; i++ {
				code, body, _, err := probes[route](i)
				if err != nil {
					return nil, err
				}
				if err := statusErr("route probe "+route, code, http.StatusOK, body); err != nil {
					return nil, err
				}
			}
			post, err := r.d.account(c.hc)
			if err != nil {
				return nil, err
			}
			mean = routeMeanUS(pre, post, route)
		}
		out["server.route_mean_us."+route[len("/v1/"):]] = value{mean, "us"}
	}

	// Job timestamps: the calibrate workload's own jobs, else one job of
	// the same spec submitted now.
	if len(r.jobs) == 0 {
		if err := prepareCalibrate(r); err != nil {
			return nil, err
		}
		if _, _, err := opCalibrate(r, c, 0); err != nil {
			return nil, fmt.Errorf("probe calibration: %w", err)
		}
	}
	queue, runTime := jobTimes(r.jobs)
	out["server.job_queue_ms"] = value{float64(queue) / 1e6, "ms"}
	out["server.job_run_s"] = value{runTime.Seconds(), "s"}

	// The loopback floor: GET /healthz round trips.
	const rtts = 200
	rtt := make([]float64, 0, rtts)
	for i := 0; i < rtts; i++ {
		code, body, dur, err := c.do(http.MethodGet, "/healthz", nil)
		if err != nil {
			return nil, err
		}
		if err := statusErr("healthz", code, http.StatusOK, body); err != nil {
			return nil, err
		}
		rtt = append(rtt, float64(dur)/1e3)
	}
	sort.Float64s(rtt)
	out["client.rtt_us"] = value{median(rtt), "us"}
	return out, nil
}

// layerInputs are the request bodies and items the in-process probes use,
// made the way the workload makes them: its own key set or probe points
// where it has them, otherwise client 0's first decide decisions.
type layerInputs struct {
	singles   [][]byte
	items     []predictReq // single-demand predictions for core.predict
	batches   [][]byte
	schedules [][]byte
	sched     []scheduleReq
	versions  [2]refModel
}

func (r *run) layerInputs(w *workload) layerInputs {
	var in layerInputs
	rng := rand.New(rand.NewSource(r.seed * 7919)) // client 0's stream
	var decisions []decision
	for i := 0; i < 8; i++ {
		decisions = append(decisions, genDecision(rng, r.shipped))
	}
	for _, d := range decisions {
		in.batches = append(in.batches, d.batchBody)
		in.schedules = append(in.schedules, d.schedBody)
		in.sched = append(in.sched, d.sched)
	}
	in.items = decisions[0].batch
	for _, q := range in.items[:64] {
		in.singles = append(in.singles, mustJSON(q))
	}
	switch w.name {
	case "predict_hot":
		in.singles, in.items = r.hotBodies, r.hotReqs
		in.batches = [][]byte{batchBody(r.hotReqs)}
	case "calibrate":
		in.items = r.probe
		in.singles = nil
		for _, q := range r.probe {
			in.singles = append(in.singles, mustJSON(q))
		}
		in.batches = [][]byte{batchBody(r.probe)}
	}
	in.versions = genVersions(r.seed, r.shipped[publishedKey])
	return in
}

// inProcessLayers measures every layer in this process, after the daemon
// has stopped, so the probes do not compete with it for the CPUs.
func (r *run) inProcessLayers(in layerInputs) (map[string]value, error) {
	out := map[string]value{}

	loadID := r.tr.begin("calib.load", 0, 0)
	const loads = 50
	for i := 0; i < loads; i++ {
		if _, err := calib.Load(r.models); err != nil {
			return nil, err
		}
	}
	r.tr.endCount(loadID, loads)
	out["calib.load_ms"] = value{perCallNS(byName(r.tr.snapshot(), "calib.load")) / 1e6, "ms"}

	serving, err := r.servingLayers(in)
	if err != nil {
		return nil, err
	}
	modelLayers, err := r.modelLayers(in)
	if err != nil {
		return nil, err
	}
	sweep, err := r.sweepLayers()
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]value{serving, modelLayers, sweep} {
		for k, v := range m {
			out[k] = v
		}
	}
	self := selfTimes(r.tr.snapshot())
	for _, layer := range traceLayers {
		out["trace.self_ms."+layer] = value{float64(self[layer]) / 1e6, "ms"}
	}
	return out, nil
}

// discardWriter is a reusable ResponseWriter that keeps only the status
// and, on request, the body.
type discardWriter struct {
	h    http.Header
	code int
	keep bool
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	w.code = code
}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.body.Write(b)
	}
	return len(b), nil
}

// serveLoop calls h.ServeHTTP n times over the bodies under one span and
// returns the nanoseconds and heap allocations per call, the latter less
// those of the loop itself (measured around a handler that does nothing).
func (r *run) serveLoop(name string, h http.Handler, path string, bodies [][]byte, n int) (float64, float64, error) {
	loop := func(h http.Handler, span string) (float64, uint64, error) {
		w := &discardWriter{h: http.Header{}}
		req, err := http.NewRequest(http.MethodPost, path, nil)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := r.tr.begin(span, 0, 0)
		start := time.Now()
		for i := 0; i < n; i++ {
			clear(w.h)
			w.code = http.StatusOK
			req.Body = io.NopCloser(bytes.NewReader(bodies[i%len(bodies)]))
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				return 0, 0, fmt.Errorf("%s: in-process status %d", span, w.code)
			}
		}
		dur := time.Since(start)
		r.tr.endCount(id, n)
		runtime.ReadMemStats(&ms1)
		return float64(dur) / float64(n), ms1.Mallocs - ms0.Mallocs, nil
	}
	_, base, err := loop(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), "client.harness")
	if err != nil {
		return 0, 0, err
	}
	per, allocs, err := loop(h, name)
	if err != nil {
		return 0, 0, err
	}
	return per, float64(allocs-min(base, allocs)) / float64(n), nil
}

// servingLayers times the daemon's HTTP handler in process (no socket) on
// the workload's request bodies, JSON decoding and encoding of the
// workload's batch, and the model registry.
func (r *run) servingLayers(in layerInputs) (map[string]value, error) {
	srv, err := server.New(server.Config{ModelPath: r.models, Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // never served; nothing to drain
	}()
	h := srv.Handler()
	out := map[string]value{}
	single, singleAllocs, err := r.serveLoop("server.handler_predict", h, "/v1/predict", in.singles, 20000)
	if err != nil {
		return nil, err
	}
	batch, batchAllocs, err := r.serveLoop("server.handler_batch", h, "/v1/predict", in.batches, 400)
	if err != nil {
		return nil, err
	}
	schedule, _, err := r.serveLoop("server.handler_schedule", h, "/v1/schedule", in.schedules, 400)
	if err != nil {
		return nil, err
	}
	out["server.handler_predict_us"] = value{single / 1e3, "us"}
	out["server.handler_predict_allocs"] = value{singleAllocs, "count"}
	out["server.handler_batch_us"] = value{batch / 1e3, "us"}
	out["server.handler_batch_allocs"] = value{batchAllocs, "count"}
	out["server.handler_schedule_us"] = value{schedule / 1e3, "us"}

	// JSON on the public request and result types of the workload's batch
	// (a decide batch on decide).
	w := &discardWriter{h: http.Header{}, keep: true}
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(in.batches[0]))
	if err != nil {
		return nil, err
	}
	h.ServeHTTP(w, req)
	var wire struct {
		Batch []server.PredictRequest `json:"batch"`
	}
	var results struct {
		Results []server.PredictResult `json:"results"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &results); err != nil {
		return nil, fmt.Errorf("in-process batch answer: %w", err)
	}
	const codecs = 400
	id := r.tr.begin("server.json_decode", 0, 0)
	for i := 0; i < codecs; i++ {
		wire.Batch = wire.Batch[:0]
		if err := json.Unmarshal(in.batches[0], &wire); err != nil {
			return nil, err
		}
	}
	r.tr.endCount(id, codecs)
	id = r.tr.begin("server.json_encode", 0, 0)
	enc := json.NewEncoder(io.Discard)
	for i := 0; i < codecs; i++ {
		if err := enc.Encode(results); err != nil {
			return nil, err
		}
	}
	r.tr.endCount(id, codecs)

	// The registry, opened from the same model file.
	reg, err := server.OpenRegistry(r.models)
	if err != nil {
		return nil, err
	}
	keys := reg.Keys()
	const gets = 200000
	id = r.tr.begin("server.registry_get", 0, 0)
	for i := 0; i < gets; i++ {
		m := r.shipped[keys[i%len(keys)]]
		if _, err := reg.Get(m.Platform, m.PU); err != nil {
			return nil, err
		}
	}
	r.tr.endCount(id, gets)
	const puts = 20000
	versions := [2]core.Params{toParams(in.versions[0]), toParams(in.versions[1])}
	id = r.tr.begin("server.registry_put", 0, 0)
	for i := 0; i < puts; i++ {
		if err := reg.Put(versions[i%2]); err != nil {
			return nil, err
		}
	}
	r.tr.endCount(id, puts)

	spans := r.tr.snapshot()
	out["server.json_decode_us"] = value{perCallNS(byName(spans, "server.json_decode")) / 1e3, "us"}
	out["server.json_encode_us"] = value{perCallNS(byName(spans, "server.json_encode")) / 1e3, "us"}
	out["server.registry_get_ns"] = value{perCallNS(byName(spans, "server.registry_get")), "ns"}
	out["server.registry_put_us"] = value{perCallNS(byName(spans, "server.registry_put")) / 1e3, "us"}
	return out, nil
}

func toParams(m refModel) core.Params {
	return core.Params{Platform: m.Platform, PU: m.PU, NormalBW: m.NormalBW, IntensiveBW: m.IntensiveBW,
		MRMC: m.MRMC, CBP: m.CBP, TBWDC: m.TBWDC, RateN: m.RateN, PeakBW: m.PeakBW}
}

// sink keeps the compiler from dropping timed calls whose results are
// otherwise unused.
var sink float64

// modelLayers times the three-region model, phase-wise prediction and the
// scheduler on the workload's items.
func (r *run) modelLayers(in layerInputs) (map[string]value, error) {
	params := map[string]core.Params{}
	for k, m := range r.shipped {
		params[k] = toParams(m)
	}
	type call struct {
		p    core.Params
		x, y float64
	}
	calls := make([]call, len(in.items))
	for i, q := range in.items {
		calls[i] = call{params[q.key()], q.DemandGBps, q.ExternalGBps}
	}
	const predicts = 1 << 20
	id := r.tr.begin("core.predict", 0, 0)
	for i := 0; i < predicts; i++ {
		c := &calls[i%len(calls)]
		sink += c.p.Predict(c.x, c.y)
	}
	r.tr.endCount(id, predicts)

	gpu := params[schedPlatform+"/GPU"]
	var phased [][]core.Phase
	var ys []float64
	for _, s := range in.sched {
		for _, it := range s.Workloads {
			if len(it.Phases) == 0 {
				ys = append(ys, it.DemandGBps)
				continue
			}
			var ph []core.Phase
			for _, p := range it.Phases {
				ph = append(ph, core.Phase{Weight: p.Weight, DemandGBps: p.DemandGBps})
			}
			phased = append(phased, ph)
		}
	}
	const phaseCalls = 1 << 18
	id = r.tr.begin("core.predict_phases", 0, 0)
	for i := 0; i < phaseCalls; i++ {
		rs, err := gpu.PredictPhases(phased[i%len(phased)], ys[i%len(ys)])
		if err != nil {
			return nil, err
		}
		sink += rs
	}
	r.tr.endCount(id, phaseCalls)

	b, err := platform.Get(schedPlatform)
	if err != nil {
		return nil, err
	}
	models := calib.ModelSet{}
	for _, p := range params {
		models.Put(p)
	}
	const rounds = 20
	evaluated := 0
	solveID := r.tr.begin("sched.solve", 0, 0)
	var schedules []*sched.Schedule
	for i := 0; i < rounds; i++ {
		for _, s := range in.sched {
			res, err := sched.Solve(context.Background(), models, b, schedItems(s), sched.Options{})
			if err != nil {
				return nil, err
			}
			evaluated += res.Evaluated
			if i == 0 {
				schedules = append(schedules, res)
			}
		}
	}
	r.tr.endCount(solveID, rounds*len(in.sched))
	wcID := r.tr.begin("sched.worstcase", 0, 0)
	for i := 0; i < rounds; i++ {
		for j, s := range in.sched {
			if _, err := sched.WorstCaseBounds(context.Background(), models, b, schedItems(s), schedules[j]); err != nil {
				return nil, err
			}
		}
	}
	r.tr.endCount(wcID, rounds*len(in.sched))

	spans := r.tr.snapshot()
	return map[string]value{
		"core.predict_ns":        {perCallNS(byName(spans, "core.predict")), "ns"},
		"core.predict_phases_ns": {perCallNS(byName(spans, "core.predict_phases")), "ns"},
		"sched.solve_us":         {perCallNS(byName(spans, "sched.solve")) / 1e3, "us"},
		"sched.evaluated":        {float64(evaluated) / float64(rounds*len(in.sched)), "count"},
		"sched.worstcase_us":     {perCallNS(byName(spans, "sched.worstcase")) / 1e3, "us"},
	}, nil
}

func schedItems(s scheduleReq) []sched.Item {
	items := make([]sched.Item, len(s.Workloads))
	for i, w := range s.Workloads {
		items[i] = sched.Item{ID: w.ID, DemandGBps: w.DemandGBps, WorkUnits: w.WorkUnits}
		for _, p := range w.Phases {
			items[i].Phases = append(items[i].Phases, sched.Phase{Weight: p.Weight, DemandGBps: p.DemandGBps})
		}
	}
	return items
}
