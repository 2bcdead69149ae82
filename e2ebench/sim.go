package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/processorcentricmodel/pccs/internal/calib"
	"github.com/processorcentricmodel/pccs/internal/platform"
	"github.com/processorcentricmodel/pccs/internal/simrun"
	"github.com/processorcentricmodel/pccs/internal/soc"
)

// Held-out co-runs: the benchmark's own simulator runs at points off the
// calibration grid (which steps both demands in tenths of the peak), at
// the calibration window. They are the ground truth heldout_mae_pp
// compares the served model with.
var (
	heldoutDemand   = []float64{0.25, 0.45, 0.65, 0.85}       // target kernel, × peak
	heldoutExternal = []float64{0.15, 0.35, 0.55, 0.75, 0.95} // external pressure, × peak
)

const (
	// heldoutMAEBound is the sanity bound on heldout_mae_pp (README).
	heldoutMAEBound = 15.0
	// bwTolerance is how far an achieved bandwidth may exceed its demand:
	// the generators pace issue times, so a window can hold a few more
	// completions than the demand's exact share.
	bwTolerance = 0.02
)

// simTarget is the calibrated PU, the PU pressuring it, and the kernel
// shape the calibration sweep uses on it.
type simTarget struct {
	b        soc.Backend
	target   int
	pressure int
	rc       soc.RunConfig
}

func newSimTarget() (simTarget, error) {
	b, err := platform.Get(calPlatform)
	if err != nil {
		return simTarget{}, err
	}
	t := simTarget{b: b, target: soc.PUIndexOf(b, calPU), pressure: soc.PUIndexOf(b, "CPU"),
		rc: soc.RunConfig{WarmupCycles: calWarmup, MeasureCycles: calMeasure}}
	if t.target < 0 || t.pressure < 0 || t.target == t.pressure {
		return simTarget{}, fmt.Errorf("%s lacks the %s target or CPU pressure PU", calPlatform, calPU)
	}
	return t, nil
}

// kernel is a calibrator-shaped kernel of the given demand on the target.
func (t simTarget) kernel(demand float64) soc.Kernel {
	pu := t.b.PUList()[t.target]
	return soc.Kernel{Name: fmt.Sprintf("heldout-%.1f", demand), DemandGBps: demand,
		Outstanding: pu.Outstanding, RunLines: pu.RunLines, Streams: pu.Streams}
}

// heldoutMAE runs the held-out co-runs and returns the mean absolute gap,
// in percentage points of relative speed, between model m and the
// simulator. Each run is checked: achieved bandwidth at most the demand
// (within bwTolerance) and relative speed in (0, 100].
func heldoutMAE(m refModel) (float64, error) {
	t, err := newSimTarget()
	if err != nil {
		return 0, err
	}
	peak := t.b.PeakGBps()
	type job struct {
		pl   soc.Placement
		out  *soc.RunOutcome
		err  error
		x, y float64
	}
	var jobs []*job
	for _, x := range heldoutDemand {
		jobs = append(jobs, &job{pl: soc.Placement{t.target: t.kernel(x * peak)}, x: x * peak})
		for _, y := range heldoutExternal {
			jobs = append(jobs, &job{pl: soc.Placement{t.target: t.kernel(x * peak),
				t.pressure: soc.ExternalPressure(y * peak)}, x: x * peak, y: y * peak})
		}
	}
	next := make(chan *job)
	var wg sync.WaitGroup
	for w := 0; w < min(2, runtime.NumCPU()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := t.b.CloneBackend()
			for j := range next {
				j.out, j.err = clone.RunContext(context.Background(), j.pl, t.rc)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	var alone float64
	var sum float64
	n := 0
	for _, j := range jobs {
		if j.err != nil {
			return 0, fmt.Errorf("held-out run: %w", j.err)
		}
		got := j.out.Results[t.target].AchievedGBps
		if got > j.x*(1+bwTolerance) {
			return 0, fmt.Errorf("held-out run at demand %.2f achieved %.2f GB/s", j.x, got)
		}
		if j.y == 0 {
			alone = got
			continue
		}
		if ext := j.out.Results[t.pressure].AchievedGBps; ext > j.y*(1+bwTolerance) {
			return 0, fmt.Errorf("pressure of %.2f GB/s achieved %.2f", j.y, ext)
		}
		rs := 100 * got / alone
		if !(rs > 0 && rs <= 100*(1+bwTolerance)) {
			return 0, fmt.Errorf("held-out RS %.2f at x=%.2f y=%.2f outside (0, 100]", rs, j.x, j.y)
		}
		sum += math.Abs(refRS(m, alone, j.y) - math.Min(rs, 100))
		n++
	}
	mae := sum / float64(n)
	if mae >= heldoutMAEBound {
		return 0, fmt.Errorf("held-out MAE %.2f pp reaches the sanity bound %.0f", mae, heldoutMAEBound)
	}
	return mae, nil
}

// tracedBackend wraps the simulator so every run a sweep makes is a span
// (soc.corun or soc.standalone) and is counted. It changes no physics, so
// it keeps the wrapped backend's fingerprint.
type tracedBackend struct {
	soc.Backend
	tr     *tracer
	parent int64
	acc    *simAccount
}

// simAccount sums what the wrapped runs did.
type simAccount struct {
	mu           sync.Mutex
	busy         time.Duration // host time inside RunContext, all runs
	corunBusy    time.Duration
	coruns       int
	requests     float64 // memory requests served in measurement windows
	cyclesPerSec float64
	bytesPerReq  float64
}

func (t *tracedBackend) CloneBackend() soc.Backend {
	return &tracedBackend{Backend: t.Backend.CloneBackend(), tr: t.tr, parent: t.parent, acc: t.acc}
}

func (t *tracedBackend) RunContext(ctx context.Context, pl soc.Placement, rc soc.RunConfig) (*soc.RunOutcome, error) {
	start := time.Now()
	out, err := t.Backend.RunContext(ctx, pl, rc)
	end := time.Now()
	active := 0
	for _, k := range pl {
		if k.DemandGBps > 0 {
			active++
		}
	}
	name := "soc.standalone"
	if active > 1 {
		name = "soc.corun"
	}
	t.tr.record(name, t.parent, 0, start, end, 1)
	if err == nil {
		a := t.acc
		a.mu.Lock()
		a.busy += end.Sub(start)
		if active > 1 {
			a.coruns++
			a.corunBusy += end.Sub(start)
		}
		seconds := float64(rc.MeasureCycles) / a.cyclesPerSec
		a.requests += out.EffectiveGBps * 1e9 * seconds / a.bytesPerReq
		a.mu.Unlock()
	}
	return out, err
}

// sweepLayers runs the calibration sweep and extraction in process, under
// spans, on the same PU and window the calibrate workload submits, and
// derives the soc, simrun and calib layer metrics.
func (r *run) sweepLayers() (map[string]value, error) {
	t, err := newSimTarget()
	if err != nil {
		return nil, err
	}
	p, ok := t.b.(*soc.Platform)
	if !ok {
		return nil, fmt.Errorf("%s is not a virtual SoC", calPlatform)
	}
	acc := &simAccount{cyclesPerSec: p.Mem.CyclesPerSecond(), bytesPerReq: float64(p.Mem.LineBytes)}
	tb := &tracedBackend{Backend: t.b, tr: r.tr, acc: acc}
	cfg := calib.DefaultSweep(tb, t.target, t.pressure)
	cfg.Run = t.rc
	ex := simrun.New(0)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sweepID := r.tr.begin("calib.sweep", 0, 0)
	tb.parent = sweepID
	m, err := calib.SweepContext(context.Background(), ex, tb, cfg)
	r.tr.end(sweepID)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	sweep := byName(r.tr.snapshot(), "calib.sweep")[0].dur()

	const extracts = 200
	extractID := r.tr.begin("calib.extract", 0, 0)
	var params refModel
	for i := 0; i < extracts; i++ {
		pr, err := calib.Extract(m, calib.DefaultOptions())
		if err != nil {
			return nil, err
		}
		params = refModel{NormalBW: pr.NormalBW, IntensiveBW: pr.IntensiveBW, MRMC: pr.MRMC,
			CBP: pr.CBP, TBWDC: pr.TBWDC, RateN: pr.RateN, PeakBW: pr.PeakBW}
	}
	r.tr.endCount(extractID, extracts)
	if err := checkModelInvariants(params, r.platformPeak); err != nil {
		r.checks.fail("in-process extraction: %v", err)
	}

	done, _ := ex.Progress()
	lookups := len(cfg.Calibrators)
	hits := lookups - ex.Cache.Len()
	spans := r.tr.snapshot()
	return map[string]value{
		"soc.corun_ms":           {float64(acc.corunBusy) / 1e6 / float64(acc.coruns), "ms"},
		"soc.sim_mreq_per_s":     {acc.requests / acc.busy.Seconds() / 1e6, "Mreq/s"},
		"soc.allocs_per_req":     {float64(ms1.Mallocs-ms0.Mallocs) / acc.requests, "count/req"},
		"soc.alloc_b_per_req":    {float64(ms1.TotalAlloc-ms0.TotalAlloc) / acc.requests, "B/req"},
		"simrun.points":          {float64(done), "count"},
		"simrun.memo_hit_ratio":  {float64(hits) / float64(lookups), "ratio"},
		"simrun.memo_lookups":    {float64(lookups), "count"},
		"simrun.pool_efficiency": {acc.busy.Seconds() / (float64(ex.Workers()) * sweep.Seconds()), "ratio"},
		"calib.sweep_s":          {sweep.Seconds(), "s"},
		"calib.extract_ms":       {perCallNS(byName(spans, "calib.extract")) / 1e6, "ms"},
	}, nil
}
