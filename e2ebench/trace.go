package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own code around a call into the program. Name is
// "<layer>.<what>"; Parent is the id of the span that caused it (0 for a
// root); Op groups the spans of one operation; Count is how many calls the
// span covers when it wraps a loop of calls too short to time one by one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id; end closes it. An op of 0 is
// inherited from the parent, and a root span is its own op.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch).Nanoseconds(), Count: 1})
}

func (t *tracer) end(id int64) { t.endCount(id, 1) }

func (t *tracer) endCount(id int64, count int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Count = now, count
	t.mu.Unlock()
}

// record adds an already-timed span (used where the timing comes from
// elsewhere: a wrapped simulator run on a worker goroutine, a job record).
func (t *tracer) record(name string, parent, op int64, start, end time.Time, count int) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Count: count})
}

// add assigns the span the next id. Ids are dense and spans are appended in
// id order, so span id sits at index id-1.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	if s.Op == 0 {
		s.Op = s.ID
		if s.Parent != 0 {
			s.Op = t.spans[s.Parent-1].Op
		}
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the closed spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// perCallNS is the mean duration in nanoseconds of one call over spans
// that may each wrap several calls.
func perCallNS(spans []span) float64 {
	var total time.Duration
	calls := 0
	for _, s := range spans {
		total += s.dur()
		calls += s.Count
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover (children can overlap when they run on
// several workers, so coverage is the union of their intervals).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = start, end
			continue
		}
		curEnd = max(curEnd, end)
	}
	total += curEnd - curStart
	return time.Duration(total)
}

// writeSpans writes the spans as one JSON array to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
