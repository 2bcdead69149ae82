package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// Input generation. Everything the daemon sees is made here from the run's
// seed; the daemon gets only the encoded requests.

// Sizes of the generated inputs (README "How the inputs are made").
const (
	hotKeys          = 48  // predict_hot: distinct (model, demand, external) keys
	batchItems       = 256 // decide: candidate placements per /v1/predict batch
	schedFlatItems   = 4   // decide: flat-demand items per /v1/schedule
	schedPhasedItems = 2   // decide: explicit multi-phase items per /v1/schedule
	publishEvery     = 4   // decide: client 0 republishes every publishEvery-th decision
	schedPlatform    = "virtual-xavier"
	publishedKey     = "virtual-snapdragon/GPU" // the model decide republishes
)

// predictReq is the wire shape of one /v1/predict request or batch item.
type predictReq struct {
	Platform     string  `json:"platform"`
	PU           string  `json:"pu"`
	DemandGBps   float64 `json:"demand_gbps"`
	ExternalGBps float64 `json:"external_gbps"`
}

func (q predictReq) key() string { return q.Platform + "/" + q.PU }

// predictRes is the part of a /v1/predict answer the checks read.
type predictRes struct {
	Platform         string  `json:"platform"`
	PU               string  `json:"pu"`
	DemandGBps       float64 `json:"demand_gbps"`
	ExternalGBps     float64 `json:"external_gbps"`
	Region           string  `json:"region"`
	RelativeSpeedPct float64 `json:"relative_speed_pct"`
	Slowdown         float64 `json:"slowdown"`
	Error            string  `json:"error"`
}

// schedItemReq is the wire shape of one /v1/schedule item.
type schedItemReq struct {
	ID         string     `json:"id"`
	DemandGBps float64    `json:"demand_gbps,omitempty"`
	Phases     []refPhase `json:"phases,omitempty"`
	WorkUnits  float64    `json:"work_units"`
}

type scheduleReq struct {
	Platform  string         `json:"platform"`
	WorstCase bool           `json:"worst_case"`
	Workloads []schedItemReq `json:"workloads"`
}

// decision is one scheduler decision of the decide workload: the
// candidate placements it scores and the batch it then schedules.
type decision struct {
	batch     []predictReq
	batchBody []byte
	sched     scheduleReq
	schedBody []byte
}

// sortedKeys lists the model keys in a fixed order, so generation does not
// depend on map iteration.
func sortedKeys(models map[string]refModel) []string {
	keys := make([]string, 0, len(models))
	for k := range models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// randomPredict draws one request: a shipped model and continuous demands
// between 2% and 100% of that platform's peak.
func randomPredict(rng *rand.Rand, models map[string]refModel, keys []string) predictReq {
	m := models[keys[rng.Intn(len(keys))]]
	return predictReq{
		Platform:     m.Platform,
		PU:           m.PU,
		DemandGBps:   m.PeakBW * (0.02 + 0.98*rng.Float64()),
		ExternalGBps: m.PeakBW * (0.02 + 0.98*rng.Float64()),
	}
}

// genHotKeys makes predict_hot's key set. Demands are rounded to 0.01 GB/s
// as a client would send them; duplicates are fine.
func genHotKeys(seed int64, models map[string]refModel) ([]predictReq, [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	keys := sortedKeys(models)
	reqs := make([]predictReq, hotKeys)
	bodies := make([][]byte, hotKeys)
	for i := range reqs {
		q := randomPredict(rng, models, keys)
		q.DemandGBps = float64(int(q.DemandGBps*100)) / 100
		q.ExternalGBps = float64(int(q.ExternalGBps*100)) / 100
		reqs[i] = q
		bodies[i] = mustJSON(q)
	}
	return reqs, bodies
}

// genDecision draws one decision from a client's stream.
func genDecision(rng *rand.Rand, models map[string]refModel) decision {
	keys := sortedKeys(models)
	var d decision
	d.batch = make([]predictReq, batchItems)
	for i := range d.batch {
		d.batch[i] = randomPredict(rng, models, keys)
	}
	d.batchBody = batchBody(d.batch)

	peak := models[schedPlatform+"/GPU"].PeakBW
	d.sched = scheduleReq{Platform: schedPlatform, WorstCase: true}
	for i := 0; i < schedFlatItems+schedPhasedItems; i++ {
		it := schedItemReq{ID: fmt.Sprintf("k%d", i), WorkUnits: 0.5 + 1.5*rng.Float64()}
		if i < schedFlatItems {
			it.DemandGBps = peak * (0.05 + 0.85*rng.Float64())
		} else {
			n := 2 + rng.Intn(3)
			for p := 0; p < n; p++ {
				it.Phases = append(it.Phases, refPhase{
					Weight:     0.1 + 0.9*rng.Float64(),
					DemandGBps: peak * (0.02 + 0.88*rng.Float64()),
				})
			}
		}
		d.sched.Workloads = append(d.sched.Workloads, it)
	}
	d.schedBody = mustJSON(d.sched)
	return d
}

// genVersions makes the two parameter versions decide alternates between
// when it republishes publishedKey: the shipped parameters, each scaled by
// a seeded factor in [0.9, 1.1] (the peak stays the platform's).
func genVersions(seed int64, base refModel) [2]refModel {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out [2]refModel
	for v := range out {
		f := func() float64 { return 0.9 + 0.2*rng.Float64() }
		m := base
		m.NormalBW *= f()
		m.IntensiveBW = m.NormalBW + (base.IntensiveBW-base.NormalBW)*f()
		m.MRMC *= f()
		m.CBP *= f()
		m.TBWDC *= f()
		m.RateN *= f()
		out[v] = m
	}
	return out
}

// batchBody encodes predictions as one /v1/predict batch request.
func batchBody(reqs []predictReq) []byte {
	return mustJSON(struct {
		Batch []predictReq `json:"batch"`
	}{reqs})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, encodable types reach here
	}
	return b
}
