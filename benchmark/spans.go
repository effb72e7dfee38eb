package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one replayed request share
// Request; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request int              `json:"request"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory; they are written once, at the end.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (ids start at 1).
func (r *recorder) begin(parent, request int, name string) int {
	return r.add(parent, request, name, r.now(), 0, nil)
}

// end closes a span and attaches the counts taken at its boundary.
func (r *recorder) end(id int, counts map[string]int64) {
	s := &r.spans[id-1]
	s.EndNs = r.now()
	s.Counts = counts
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(parent, request int, name string, startNs, endNs int64, counts map[string]int64) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, StartNs: startNs, EndNs: endNs, Counts: counts})
	return len(r.spans)
}

func (r *recorder) duration(id int) time.Duration {
	s := r.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// write stores the spans with their self times as one JSON document.
func (r *recorder) write(path, workload string, seed int64) error {
	self := selfTimes(r.spans)
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload, Seed: seed}
	for _, s := range r.spans {
		doc.Spans = append(doc.Spans, outSpan{s, self[s.ID]})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
