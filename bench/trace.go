package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The traced run's spans. They are recorded from this package, around the
// calls into each layer's public functions; spans inside the program
// (obs.Tracer) are a later change that keeps these names. Spans stay in
// memory and are written out when the run ends.

// span is one timed interval. Spans of one operation share Op; Parent is the
// ID of the span that caused this one (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"` // plan-class fixture the call ran on
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder collects spans from one goroutine (traced runs use one client).
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op int, class string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Class: class, StartNS: int64(time.Since(r.t0))})
	return id
}

// end closes the span and returns its duration in microseconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id]
	s.EndNS = int64(time.Since(r.t0))
	return float64(s.EndNS-s.StartNS) / 1e3
}

// selfTimes returns each span's self time in nanoseconds, indexed by span ID
// (spans[i].ID == i, as the recorder numbers them):
// its duration minus the part of its interval that its child spans cover
// (overlapping children are counted once, and a child is clipped to its
// parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans)) // a span's ID is its index
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// durationsWhere returns the durations, in microseconds, of the spans keep
// accepts.
func (r *recorder) durationsWhere(keep func(span) bool) []float64 {
	var out []float64
	for _, s := range r.spans {
		if keep(s) {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// durations is durationsWhere by name and class; class "" takes every class.
func (r *recorder) durations(name, class string) []float64 {
	return r.durationsWhere(func(s span) bool { return s.Name == name && (class == "" || s.Class == class) })
}

// selfOf returns the self times, in microseconds, of every span so named.
func (r *recorder) selfOf(name string) []float64 {
	self := selfTimes(r.spans)
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
