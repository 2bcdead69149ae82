package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// workload is one traffic mix. touch runs during set-up (the key set is
// touched once per client); op runs one operation and reports its latency
// and how many work units it covered.
type workload struct {
	name    string
	clients int
	warmup  time.Duration
	prepare func(r *run) error
	touch   func(r *run, c *client) error
	op      func(r *run, c *client, opID int64) (lat time.Duration, units int64, err error)
}

var workloads = map[string]*workload{
	"predict_hot": {name: "predict_hot", warmup: time.Second, prepare: prepareHot, touch: touchHot, op: opHot},
	"decide":      {name: "decide", warmup: time.Second, prepare: prepareDecide, touch: touchDecide, op: opDecide},
	"calibrate":   {name: "calibrate", clients: 1, prepare: prepareCalibrate, touch: touchCalibrate, op: opCalibrate},
}

// ---- predict_hot ----

func prepareHot(r *run) error {
	r.hotReqs, r.hotBodies = genHotKeys(r.seed, r.shipped)
	return nil
}

func touchHot(r *run, c *client) error {
	for i := c.id; i < len(r.hotBodies); i += len(r.clients) {
		if err := r.predictOne(c, i, 0); err != nil {
			return err
		}
	}
	return nil
}

func opHot(r *run, c *client, opID int64) (time.Duration, int64, error) {
	i := c.rng.Intn(len(r.hotBodies))
	start := time.Now()
	err := r.predictOne(c, i, opID)
	return time.Since(start), 1, err
}

// predictOne sends hot key i and checks the answer against the evaluator.
// The latency is the round trip; the check runs after it.
func (r *run) predictOne(c *client, i int, opID int64) error {
	code, body, _, err := c.traced(r.tr, "pccsd.predict", opID, http.MethodPost, "/v1/predict", r.hotBodies[i])
	if err != nil {
		return err
	}
	if err := statusErr("predict", code, http.StatusOK, body); err != nil {
		return err
	}
	var res predictRes
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	q := r.hotReqs[i]
	r.checkPrediction(q, res, []refModel{r.shipped[q.key()]})
	return nil
}

// checkPrediction verifies one answer: relative speed equal to the
// evaluator's for one of the model versions that could have served it,
// slowdown 100/RS, and the Eq. 1 region.
func (r *run) checkPrediction(q predictReq, res predictRes, versions []refModel) {
	if res.Error != "" {
		r.checks.fail("%s x=%g y=%g: error %q", q.key(), q.DemandGBps, q.ExternalGBps, res.Error)
		return
	}
	for _, m := range versions {
		want := refRS(m, q.DemandGBps, q.ExternalGBps)
		if relClose(res.RelativeSpeedPct, want, 1e-9) {
			if !relClose(res.Slowdown, 100/want, 1e-9) {
				r.checks.fail("%s x=%g y=%g: slowdown %g, want %g", q.key(), q.DemandGBps, q.ExternalGBps, res.Slowdown, 100/want)
			}
			if region := refRegion(m, q.DemandGBps); res.Region != region {
				r.checks.fail("%s x=%g: region %q, want %q", q.key(), q.DemandGBps, res.Region, region)
			}
			return
		}
	}
	r.checks.fail("%s x=%g y=%g: RS %.17g matches no model version (first wants %.17g)",
		q.key(), q.DemandGBps, q.ExternalGBps, res.RelativeSpeedPct, refRS(versions[0], q.DemandGBps, q.ExternalGBps))
}

// ---- decide ----

// versionLog tracks the republished model. A request may be served by
// any version acknowledged before it was sent, or whose publish began
// before its reply arrived.
type versionLog struct {
	mu        sync.Mutex
	hist      []refModel
	committed int
}

func (v *versionLog) acked() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.committed
}

// since returns the versions from index lo to the newest begun.
func (v *versionLog) since(lo int) []refModel {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]refModel(nil), v.hist[lo:]...)
}

func (v *versionLog) begin(m refModel) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.hist = append(v.hist, m)
	return len(v.hist) - 1
}

func (v *versionLog) commit(i int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.committed = i
}

func prepareDecide(r *run) error {
	base, ok := r.shipped[publishedKey]
	if !ok {
		return fmt.Errorf("shipped models lack %s", publishedKey)
	}
	r.versions = genVersions(r.seed, base)
	r.vlog = &versionLog{hist: []refModel{base}}
	return nil
}

func touchDecide(r *run, c *client) error {
	_, err := r.decide(c, genDecision(c.rng, r.shipped), false, 0)
	return err
}

func opDecide(r *run, c *client, opID int64) (time.Duration, int64, error) {
	d := genDecision(c.rng, r.shipped)
	c.nops++
	publish := c.id == 0 && c.nops%publishEvery == 0
	lat, err := r.decide(c, d, publish, opID)
	return lat, 1, err
}

// decide runs one decision: score the candidate placements, schedule the
// batch with worst-case bounds, and on the publish cadence republish one
// model. The latency is the sum of the round trips.
func (r *run) decide(c *client, d decision, publish bool, opID int64) (time.Duration, error) {
	lo := r.vlog.acked()
	code, body, lat, err := c.traced(r.tr, "pccsd.batch", opID, http.MethodPost, "/v1/predict", d.batchBody)
	if err != nil {
		return lat, err
	}
	if err := statusErr("predict batch", code, http.StatusOK, body); err != nil {
		return lat, err
	}
	var batch struct {
		Results []predictRes `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return lat, fmt.Errorf("predict batch: %w", err)
	}
	versions := r.vlog.since(lo)
	if len(batch.Results) != len(d.batch) {
		r.checks.fail("batch of %d answered with %d results", len(d.batch), len(batch.Results))
	} else {
		for i, q := range d.batch {
			vs := []refModel{r.shipped[q.key()]}
			if q.key() == publishedKey {
				vs = versions
			}
			r.checkPrediction(q, batch.Results[i], vs)
		}
	}

	code, body, dur, err := c.traced(r.tr, "pccsd.schedule", opID, http.MethodPost, "/v1/schedule", d.schedBody)
	lat += dur
	if err != nil {
		return lat, err
	}
	if err := statusErr("schedule", code, http.StatusOK, body); err != nil {
		return lat, err
	}
	if err := r.checkSchedule(d.sched, body); err != nil {
		r.checks.fail("schedule: %v", err)
	}

	if publish {
		next := r.versions[r.published%2]
		r.published++
		idx := r.vlog.begin(next)
		code, body, dur, err := c.traced(r.tr, "pccsd.publish", opID, http.MethodPost, "/v1/models", mustJSON(next))
		lat += dur
		if err != nil {
			return lat, err
		}
		if err := statusErr("publish", code, http.StatusOK, body); err != nil {
			return lat, err
		}
		r.vlog.commit(idx)
	}
	return lat, nil
}

// scheduleRes is the part of a /v1/schedule answer the checks read.
type scheduleRes struct {
	Schedule struct {
		Exhaustive bool `json:"exhaustive"`
		Waves      []struct {
			Assignments []struct {
				Item         string  `json:"item"`
				PU           string  `json:"pu"`
				DemandGBps   float64 `json:"demand_gbps"`
				ExternalGBps float64 `json:"external_gbps"`
				PredictedRS  float64 `json:"predicted_rs"`
				Slowdown     float64 `json:"slowdown"`
				WorkUnits    float64 `json:"work_units"`
				Time         float64 `json:"time"`
			} `json:"assignments"`
			Time float64 `json:"time"`
		} `json:"waves"`
		Makespan       float64 `json:"makespan"`
		SerialMakespan float64 `json:"serial_makespan"`
	} `json:"schedule"`
	WorstCase *struct {
		Bounds []struct {
			Item             string  `json:"item"`
			ExpectedSlowdown float64 `json:"expected_slowdown"`
			WorstSlowdown    float64 `json:"worst_slowdown"`
		} `json:"bounds"`
	} `json:"worst_case"`
}

// checkSchedule verifies a schedule against the request: every item placed
// once, one item per PU per wave, external demand the co-runners' sum,
// RS, wave times and makespan from the evaluator, makespan no worse than
// serial and, for an exhaustive search, equal to the enumerated optimum.
func (r *run) checkSchedule(req scheduleReq, body []byte) error {
	var res scheduleRes
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	s := res.Schedule
	items := map[string]refItem{}
	var list []refItem
	serial := 0.0
	for _, w := range req.Workloads {
		it := refItem{ID: w.ID, Demand: w.DemandGBps, Phases: w.Phases, Work: w.WorkUnits}
		items[w.ID] = it
		list = append(list, it)
		serial += w.WorkUnits
	}
	pus := r.platformPUs(req.Platform)
	placed := map[string]float64{} // item → slowdown
	makespan := 0.0
	for wi, wave := range s.Waves {
		used := map[string]bool{}
		total := 0.0
		for _, a := range wave.Assignments {
			it, ok := items[a.Item]
			if !ok {
				return fmt.Errorf("wave %d places unknown item %q", wi, a.Item)
			}
			if _, dup := placed[a.Item]; dup {
				return fmt.Errorf("item %s placed twice", a.Item)
			}
			if used[a.PU] {
				return fmt.Errorf("wave %d puts two items on %s", wi, a.PU)
			}
			used[a.PU] = true
			placed[a.Item] = a.Slowdown
			total += it.demand()
		}
		waveTime := 0.0
		for _, a := range wave.Assignments {
			it := items[a.Item]
			m, ok := pus[a.PU]
			if !ok {
				return fmt.Errorf("item %s on unmodelled PU %s", a.Item, a.PU)
			}
			y := total - it.demand()
			rs := it.rs(m, y)
			switch {
			case !relClose(a.DemandGBps, it.demand(), 1e-9):
				return fmt.Errorf("item %s demand %g, want %g", a.Item, a.DemandGBps, it.demand())
			case !relClose(a.ExternalGBps, y, 1e-9):
				return fmt.Errorf("item %s external %g, want co-runner sum %g", a.Item, a.ExternalGBps, y)
			case !relClose(a.PredictedRS, rs, 1e-9):
				return fmt.Errorf("item %s on %s: RS %.17g, want %.17g", a.Item, a.PU, a.PredictedRS, rs)
			case !relClose(a.Slowdown, 100/rs, 1e-9):
				return fmt.Errorf("item %s slowdown %g, want %g", a.Item, a.Slowdown, 100/rs)
			case !relClose(a.Time, it.Work*100/rs, 1e-9):
				return fmt.Errorf("item %s time %g, want %g", a.Item, a.Time, it.Work*100/rs)
			}
			waveTime = math.Max(waveTime, it.Work*100/rs)
		}
		if !relClose(wave.Time, waveTime, 1e-9) {
			return fmt.Errorf("wave %d time %g, want slowest member %g", wi, wave.Time, waveTime)
		}
		makespan += waveTime
	}
	if len(placed) != len(items) {
		return fmt.Errorf("%d of %d items placed", len(placed), len(items))
	}
	if !relClose(s.Makespan, makespan, 1e-9) {
		return fmt.Errorf("makespan %g, want sum of waves %g", s.Makespan, makespan)
	}
	if !relClose(s.SerialMakespan, serial, 1e-9) || s.Makespan > serial*(1+1e-9) {
		return fmt.Errorf("makespan %g against serial %g (reported %g)", s.Makespan, serial, s.SerialMakespan)
	}
	if !s.Exhaustive {
		return fmt.Errorf("a %d-item batch was not searched exhaustively", len(items))
	}
	pl := make([]refModel, 0, len(pus))
	for _, m := range pus {
		pl = append(pl, m)
	}
	if opt := refOptimalMakespan(list, pl); !relClose(s.Makespan, opt, 1e-9) {
		return fmt.Errorf("exhaustive makespan %.17g, enumerated optimum %.17g", s.Makespan, opt)
	}
	if res.WorstCase == nil || len(res.WorstCase.Bounds) != len(items) {
		return fmt.Errorf("worst-case bounds missing or incomplete")
	}
	for _, b := range res.WorstCase.Bounds {
		if !relClose(b.ExpectedSlowdown, placed[b.Item], 1e-9) || b.WorstSlowdown < b.ExpectedSlowdown*(1-1e-9) {
			return fmt.Errorf("bound for %s: expected %g (placed %g), worst %g", b.Item, b.ExpectedSlowdown, placed[b.Item], b.WorstSlowdown)
		}
	}
	return nil
}

// platformPUs returns the served models of a platform's PUs by PU name.
func (r *run) platformPUs(platform string) map[string]refModel {
	out := map[string]refModel{}
	for _, m := range r.shipped {
		if m.Platform == platform {
			out[m.PU] = m
		}
	}
	return out
}

// ---- calibrate ----

// Calibration request: one virtual-xavier PU at a shortened window that
// still lets extraction produce a valid model (README).
const (
	calPlatform = "virtual-xavier"
	calPU       = "GPU"
	calWarmup   = 10_000
	calMeasure  = 20_000
	probePoints = 32 // predictions checked on each published model
	pollEvery   = 20 * time.Millisecond
)

func prepareCalibrate(r *run) error {
	m, ok := r.shipped[calPlatform+"/"+calPU]
	if !ok {
		return fmt.Errorf("shipped models lack %s/%s", calPlatform, calPU)
	}
	r.probe = genProbe(r.seed, m)
	return nil
}

// touchCalibrate reads the served models and checks predictions on the
// shipped model of the PU to be calibrated.
func touchCalibrate(r *run, c *client) error {
	return r.checkServedModel(c, 0, false)
}

// opCalibrate submits one calibration, polls it to the end, and checks the
// model it published. One op is one job; its work units are the job's
// simulated grid points.
func opCalibrate(r *run, c *client, opID int64) (time.Duration, int64, error) {
	spec := mustJSON(map[string]any{
		"platform": calPlatform, "pu": calPU,
		"warmup_cycles": calWarmup, "measure_cycles": calMeasure,
	})
	start := time.Now()
	code, body, _, err := c.traced(r.tr, "pccsd.calibrate", opID, http.MethodPost, "/v1/calibrate", spec)
	if err != nil {
		return time.Since(start), 0, err
	}
	if err := statusErr("calibrate", code, http.StatusAccepted, body); err != nil {
		return time.Since(start), 0, err
	}
	var sub struct {
		Job jobRecord `json:"job"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return time.Since(start), 0, fmt.Errorf("calibrate: %w", err)
	}
	var job jobRecord
	for {
		time.Sleep(pollEvery)
		code, body, _, err := c.traced(r.tr, "pccsd.poll", opID, http.MethodGet, "/v1/jobs/"+sub.Job.ID, nil)
		if err != nil {
			return time.Since(start), 0, err
		}
		if err := statusErr("poll", code, http.StatusOK, body); err != nil {
			return time.Since(start), 0, err
		}
		job = jobRecord{}
		if err := json.Unmarshal(body, &job); err != nil {
			return time.Since(start), 0, fmt.Errorf("poll: %w", err)
		}
		if job.State != "queued" && job.State != "running" {
			break
		}
	}
	lat := time.Since(start)
	points := int64(0)
	if job.Progress != nil {
		points = int64(job.Progress.Total)
	}
	if job.State != "completed" {
		return lat, points, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	r.jobs = append(r.jobs, job)
	if job.Started != nil && job.Finished != nil {
		// The job ran inside the daemon between the polls; its record's
		// timestamps place it in the trace.
		r.tr.record("pccsd.job", opID, opID, *job.Started, *job.Finished, 1)
	}
	return lat, points, r.checkServedModel(c, opID, true)
}

// jobRecord is the part of a /v1/jobs/{id} answer the benchmark reads.
type jobRecord struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Progress  *struct {
		Total int `json:"total"`
	} `json:"progress"`
	Error string `json:"error"`
}

// genProbe draws the points predicted on each published model.
func genProbe(seed int64, m refModel) []predictReq {
	rng := rand.New(rand.NewSource(seed ^ 0xca1))
	out := make([]predictReq, probePoints)
	for i := range out {
		out[i] = predictReq{
			Platform:     m.Platform,
			PU:           m.PU,
			DemandGBps:   m.PeakBW * (0.02 + 0.98*rng.Float64()),
			ExternalGBps: m.PeakBW * (0.02 + 0.98*rng.Float64()),
		}
	}
	return out
}

// checkServedModel reads the calibrated PU's model back from /v1/models,
// checks its invariants when it is a freshly published one, and checks
// daemon predictions on it against the evaluator.
func (r *run) checkServedModel(c *client, opID int64, published bool) error {
	models, err := r.readModels(c, opID)
	if err != nil {
		return err
	}
	key := calPlatform + "/" + calPU
	m, ok := models[key]
	if !ok {
		return fmt.Errorf("models: %s missing", key)
	}
	if published {
		if err := checkModelInvariants(m, r.platformPeak); err != nil {
			r.checks.fail("published %s: %v", key, err)
		}
	}
	code, body, _, err := c.traced(r.tr, "pccsd.batch", opID, http.MethodPost, "/v1/predict", batchBody(r.probe))
	if err != nil {
		return err
	}
	if err := statusErr("probe batch", code, http.StatusOK, body); err != nil {
		return err
	}
	var batch struct {
		Results []predictRes `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return fmt.Errorf("probe batch: %w", err)
	}
	if len(batch.Results) != len(r.probe) {
		r.checks.fail("probe batch of %d answered with %d", len(r.probe), len(batch.Results))
		return nil
	}
	for i, q := range r.probe {
		r.checkPrediction(q, batch.Results[i], []refModel{m})
	}
	return nil
}

// jobTimes returns the median queue wait and run time of the completed
// jobs, from the job records' timestamps.
func jobTimes(jobs []jobRecord) (queue, run time.Duration) {
	var qs, rs []float64
	for _, j := range jobs {
		if j.Started == nil || j.Finished == nil {
			continue
		}
		qs = append(qs, float64(j.Started.Sub(j.Submitted)))
		rs = append(rs, float64(j.Finished.Sub(*j.Started)))
	}
	sort.Float64s(qs)
	sort.Float64s(rs)
	return time.Duration(median(qs)), time.Duration(median(rs))
}
