package main

// The reference evaluator: the paper's equations written out again, apart
// from the program, so that every answer the daemon gives can be checked
// against a computation that shares no code with it. Nothing here imports
// the program's packages.

import (
	"fmt"
	"math"
)

// refModel holds the seven per-PU parameters of a PCCS model (paper
// Table 4). The JSON field names follow the model artifact and the
// /v1/models response.
type refModel struct {
	Platform    string
	PU          string
	NormalBW    float64
	IntensiveBW float64
	MRMC        float64
	CBP         float64
	TBWDC       float64
	RateN       float64
	PeakBW      float64
}

// refRegion is Eq. 1: the region follows from the kernel's own demand x.
func refRegion(m refModel, x float64) string {
	if x <= m.NormalBW {
		return "minor"
	}
	if x <= m.IntensiveBW {
		return "normal"
	}
	return "intensive"
}

// refRS is the relative speed in percent of a kernel with standalone
// demand x under external demand y (Eqs. 2–5). The curve is flat at the
// minor-region loss, drops at RateN (normal) or at the extrapolated rate
// of Eq. 4 (intensive) once x+y passes TBWDC, stops dropping once y
// reaches the contention balance point, and is clamped to [1, 100].
func refRS(m refModel, x, y float64) float64 {
	if y <= 0 {
		return 100
	}
	if x < 0 {
		x = 0
	}
	minorLoss := m.MRMC * x / m.PeakBW // Eq. 2
	yCapped := y
	if yCapped > m.CBP {
		yCapped = m.CBP
	}
	overlap := x + yCapped - m.TBWDC
	var loss float64
	switch refRegion(m, x) {
	case "minor":
		loss = minorLoss
	case "normal": // Eq. 3
		loss = math.Max(minorLoss, math.Max(overlap*m.RateN, 0))
	default: // Eq. 5 with the intensive rate of Eq. 4
		rate := m.RateN
		if m.CBP > 0 {
			rate = math.Max(m.RateN*(x+m.CBP-m.TBWDC)/m.CBP, 0)
		}
		loss = math.Max(overlap*rate, 0)
	}
	return math.Min(math.Max(100-loss, 1), 100)
}

// refPhase is one phase of a multi-phase kernel: a share of its
// standalone time spent at one demand.
type refPhase struct {
	Weight     float64 `json:"weight"`
	DemandGBps float64 `json:"demand_gbps"`
}

// refPhasesRS is the phase-wise prediction: each phase's time dilates by
// 100/RS, so the whole kernel's relative speed is the weighted harmonic
// mean of the phase speeds.
func refPhasesRS(m refModel, phases []refPhase, y float64) float64 {
	total := 0.0
	for _, ph := range phases {
		total += ph.Weight
	}
	dilation := 0.0
	for _, ph := range phases {
		dilation += ph.Weight / total * 100 / refRS(m, ph.DemandGBps, y)
	}
	return 100 / dilation
}

// refMeanDemand is the time-weighted demand of a phased kernel — what its
// co-runners see as its external demand.
func refMeanDemand(phases []refPhase) float64 {
	total, sum := 0.0, 0.0
	for _, ph := range phases {
		total += ph.Weight
		sum += ph.Weight * ph.DemandGBps
	}
	return sum / total
}

// refItem is one pending kernel of a scheduling batch: a flat demand or a
// phase profile, and its standalone time in work units.
type refItem struct {
	ID     string
	Demand float64 // flat demand; ignored when Phases is set
	Phases []refPhase
	Work   float64
}

func (it refItem) demand() float64 {
	if len(it.Phases) > 0 {
		return refMeanDemand(it.Phases)
	}
	return it.Demand
}

// rs is the item's relative speed on a PU's model under external demand y.
func (it refItem) rs(m refModel, y float64) float64 {
	if len(it.Phases) > 0 {
		return refPhasesRS(m, it.Phases, y)
	}
	return refRS(m, it.Demand, y)
}

// refPlaced is one member of a co-run wave.
type refPlaced struct {
	Item refItem
	PU   refModel
}

// refWaveTime is the wave cost of a co-run group: every member sees the
// sum of the other members' demands as external demand, runs for
// work·100/RS, and the wave lasts as long as its slowest member.
func refWaveTime(wave []refPlaced) float64 {
	t := 0.0
	for i, a := range wave {
		y := 0.0
		for j, b := range wave {
			if j != i {
				y += b.Item.demand()
			}
		}
		t = math.Max(t, a.Item.Work*100/a.Item.rs(a.PU, y))
	}
	return t
}

// refOptimalMakespan enumerates every split of the items into waves of at
// most one item per PU and every placement of each wave on distinct PUs,
// and returns the smallest sum of wave times. It is exponential and meant
// for the handful of items a synchronous schedule request carries.
func refOptimalMakespan(items []refItem, pus []refModel) float64 {
	best := math.Inf(1)
	var groups [][]refItem
	var place func(k int, acc float64)
	place = func(k int, acc float64) {
		if acc >= best {
			return
		}
		if k == len(items) {
			best = acc
			return
		}
		// Item k opens a new wave or joins an open one. Wave times are
		// recomputed only for the touched wave, so acc stays the exact
		// sum over the waves formed so far.
		for g := range groups {
			if len(groups[g]) == len(pus) {
				continue
			}
			before := refBestWave(groups[g], pus)
			groups[g] = append(groups[g], items[k])
			place(k+1, acc-before+refBestWave(groups[g], pus))
			groups[g] = groups[g][:len(groups[g])-1]
		}
		groups = append(groups, []refItem{items[k]})
		place(k+1, acc+refBestWave(groups[len(groups)-1], pus))
		groups = groups[:len(groups)-1]
	}
	place(0, 0)
	return best
}

// refBestWave is the shortest wave time over every injective placement of
// the group on the PUs.
func refBestWave(group []refItem, pus []refModel) float64 {
	best := math.Inf(1)
	wave := make([]refPlaced, len(group))
	used := make([]bool, len(pus))
	var assign func(k int)
	assign = func(k int) {
		if k == len(group) {
			best = math.Min(best, refWaveTime(wave))
			return
		}
		for p := range pus {
			if used[p] {
				continue
			}
			used[p] = true
			wave[k] = refPlaced{Item: group[k], PU: pus[p]}
			assign(k + 1)
			used[p] = false
		}
	}
	assign(0)
	return best
}

// relClose reports whether got equals want within tol relative (absolute
// near zero).
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// checkModelInvariants verifies a constructed model against the
// constraints the paper's parameters obey and the platform's peak.
func checkModelInvariants(m refModel, peak float64) error {
	switch {
	case !(m.NormalBW >= 0 && m.NormalBW <= m.IntensiveBW):
		return fmt.Errorf("NormalBW %g not in [0, IntensiveBW %g]", m.NormalBW, m.IntensiveBW)
	case !(m.MRMC >= 0 && m.MRMC <= 100):
		return fmt.Errorf("MRMC %g not in [0, 100]", m.MRMC)
	case !(m.CBP > 0):
		return fmt.Errorf("CBP %g not positive", m.CBP)
	case !(m.RateN >= 0):
		return fmt.Errorf("RateN %g negative", m.RateN)
	case !relClose(m.PeakBW, peak, 1e-12):
		return fmt.Errorf("PeakBW %g, platform peak %g", m.PeakBW, peak)
	}
	return nil
}
