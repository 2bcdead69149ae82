package main

import (
	"testing"
	"time"
)

func TestSelfTimesUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "calib.sweep", Start: 0, End: 100},
		// Overlapping children (two workers) cover [10, 50) and [60, 70);
		// the last one runs past the parent and is clipped to it.
		{ID: 2, Parent: 1, Name: "soc.corun", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "soc.corun", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "soc.corun", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "soc.corun", Start: 95, End: 120},
		{ID: 6, Name: "server.registry_get", Start: 200, End: 210},
		{ID: 7, Name: "server.open", Start: 300}, // never closed: ignored
	}
	self := selfTimes(spans)
	if got, want := self["calib"], time.Duration(100-40-10-5); got != want {
		t.Errorf("calib self = %v, want %v", got, want)
	}
	if got, want := self["soc"], time.Duration(20+30+10+25); got != want {
		t.Errorf("soc self = %v, want %v", got, want)
	}
	if got, want := self["server"], time.Duration(10); got != want {
		t.Errorf("server self = %v, want %v", got, want)
	}
}

func TestTracerInheritsOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("client.decide", 0, 0)
	child := tr.begin("pccsd.batch", root, 0)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if spans[0].Op != root || spans[1].Op != root || spans[1].Parent != root {
		t.Fatalf("spans %+v: want both in op %d", spans, root)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("client.x", 0, 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}
