package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one job share its index; parent 0
// marks a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Count is the work the call did, where it has a natural unit
	// (simulated events, exported bytes); 0 otherwise.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.endCount(id, 0) }

// endCount closes span id and records the work it did.
func (t *tracer) endCount(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span ID to its duration minus the part of its
// interval covered by its children.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write saves every span, with its self time, as one JSON document.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	type out struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	all := make([]out, len(t.spans))
	for i, s := range t.spans {
		all[i] = out{s, self[s.ID]}
	}
	t.mu.Unlock()
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meanMS is the mean duration of the named spans in milliseconds (0
// when there are none).
func (t *tracer) meanMS(name string) float64 {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range ss {
		sum += s.dur()
	}
	return ms(sum) / float64(len(ss))
}

// totals sums the named spans' durations and counts.
func (t *tracer) totals(name string) (time.Duration, int64, int) {
	var d time.Duration
	var c int64
	ss := t.named(name)
	for _, s := range ss {
		d += s.dur()
		c += s.Count
	}
	return d, c, len(ss)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
