package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps span 2: 30..50 is new
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // outlives its parent: clipped to 100
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 35},
		{ID: 6, Parent: 1, StartNs: 22, EndNs: 28}, // entirely inside what 2 and 3 cover
		{ID: 7, Parent: 0, StartNs: 200, EndNs: 200},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 6, 7: 0}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(0, 1, "request")
	child := rec.begin(root, 1, "engine.execute")
	rec.end(child, map[string]int64{"rows": 3})
	rec.add(child, 1, "engine.op.scan", rec.spans[child-1].StartNs, rec.spans[child-1].EndNs, nil)
	rec.end(root, nil)
	if len(rec.spans) != 3 || rec.spans[1].Parent != root || rec.spans[2].Parent != child {
		t.Fatalf("unexpected span tree: %+v", rec.spans)
	}
	for _, s := range rec.spans {
		if s.Request != 1 || s.EndNs < s.StartNs {
			t.Errorf("span %+v: wrong request id or negative duration", s)
		}
	}
	// The op child covers all of engine.execute, so execute's self time is 0.
	if self := selfTimes(rec.spans)[child]; self != 0 {
		t.Errorf("self time of a fully covered span = %d, want 0", self)
	}
}
