package main

import (
	"math"
	"testing"
)

// handModel has round parameters so every expected value below can be
// worked out by hand from Eqs. 1–5.
var handModel = refModel{
	NormalBW:    20,
	IntensiveBW: 60,
	MRMC:        5,
	CBP:         40,
	TBWDC:       70,
	RateN:       2,
	PeakBW:      100,
}

func TestRefRegion(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want string
	}{
		{0, "minor"}, {20, "minor"}, {20.5, "normal"}, {60, "normal"}, {61, "intensive"},
	} {
		if got := refRegion(handModel, c.x); got != c.want {
			t.Errorf("region(%g) = %s, want %s", c.x, got, c.want)
		}
	}
}

func TestRefRS(t *testing.T) {
	for _, c := range []struct {
		name string
		x, y float64
		want float64
	}{
		// No external demand: the kernel runs standalone.
		{"standalone minor", 10, 0, 100},
		{"standalone intensive", 90, 0, 100},
		// Minor region: 100 − MRMC·x/PeakBW = 100 − 5·10/100, whatever y.
		{"minor low y", 10, 5, 99.5},
		{"minor high y", 10, 500, 99.5},
		// Normal region, x = 40: minor loss 5·40/100 = 2; the drop
		// (40 + y − 70)·2 is below it until y = 31.
		{"normal flat", 40, 20, 98},
		{"normal dropping", 40, 35, 90},   // (40+35−70)·2 = 10
		{"normal at CBP", 40, 40, 80},     // (40+40−70)·2 = 20
		{"normal beyond CBP", 40, 90, 80}, // y capped at CBP = 40
		// Intensive region, x = 80: Eq. 4 rate 2·(80+40−70)/40 = 2.5;
		// the drop (80 + y − 70)·2.5 starts at once.
		{"intensive small y", 80, 2, 70}, // 12·2.5 = 30
		{"intensive tail", 80, 100, 1},   // (80+40−70)·2.5 = 125 → floor at 1
	} {
		if got := refRS(handModel, c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: RS(%g, %g) = %.15g, want %g", c.name, c.x, c.y, got, c.want)
		}
	}
}

func TestRefRSFloor(t *testing.T) {
	m := handModel
	m.RateN = 50
	if got := refRS(m, 50, 40); got != 1 {
		t.Fatalf("RS with a 1000-point loss = %g, want the floor 1", got)
	}
}

func TestRefPhasesRS(t *testing.T) {
	// Two equal-weight phases under y = 40: x = 10 is minor (RS 99.5) and
	// x = 40 is normal at CBP (RS 80), so the dilation is
	// ½·100/99.5 + ½·100/80.
	phases := []refPhase{{Weight: 1, DemandGBps: 10}, {Weight: 1, DemandGBps: 40}}
	want := 100 / (0.5*100/99.5 + 0.5*100/80)
	if got := refPhasesRS(handModel, phases, 40); math.Abs(got-want) > 1e-12 {
		t.Fatalf("phases RS = %.15g, want %.15g", got, want)
	}
	if got := refMeanDemand(phases); got != 25 {
		t.Fatalf("mean demand = %g, want 25", got)
	}
}

func TestRefWaveTimeAndOptimum(t *testing.T) {
	a := refItem{ID: "a", Demand: 40, Work: 1}
	b := refItem{ID: "b", Demand: 40, Work: 2}
	// Together each sees y = 40: RS 80, so times 1.25 and 2.5; the wave
	// lasts 2.5 against 3 for running them one after the other.
	wave := []refPlaced{{a, handModel}, {b, handModel}}
	if got := refWaveTime(wave); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("wave time = %g, want 2.5", got)
	}
	if got := refOptimalMakespan([]refItem{a, b}, []refModel{handModel, handModel}); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("optimum = %g, want 2.5", got)
	}
	// With one PU the items cannot co-run: the optimum is the serial 3.
	if got := refOptimalMakespan([]refItem{a, b}, []refModel{handModel}); got != 3 {
		t.Fatalf("one-PU optimum = %g, want 3", got)
	}
	// Two intensive items (x = 80, RS 1 at y = 80) must not share a wave.
	c := refItem{ID: "c", Demand: 80, Work: 1}
	d := refItem{ID: "d", Demand: 80, Work: 1}
	if got := refOptimalMakespan([]refItem{c, d}, []refModel{handModel, handModel}); got != 2 {
		t.Fatalf("intensive pair optimum = %g, want 2 (serial)", got)
	}
}

func TestCheckModelInvariants(t *testing.T) {
	if err := checkModelInvariants(handModel, 100); err != nil {
		t.Fatal(err)
	}
	bad := handModel
	bad.NormalBW = 70
	if checkModelInvariants(bad, 100) == nil {
		t.Fatal("NormalBW above IntensiveBW accepted")
	}
	if checkModelInvariants(handModel, 136) == nil {
		t.Fatal("wrong peak accepted")
	}
}
