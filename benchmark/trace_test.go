package main

import "testing"

// Self time is a span's duration minus the part of its interval that its
// direct children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},   // 20 inside root
		{ID: 3, Parent: 1, Name: "b", StartNS: 25, EndNS: 50},   // overlaps a by 5: adds 20
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},  // clipped to the parent: adds 10
		{ID: 5, Parent: 2, Name: "a.x", StartNS: 12, EndNS: 18}, // a grandchild of root: a's business only
		{ID: 6, Parent: 0, Name: "sibling", StartNS: 40, EndNS: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 14, 3: 25, 4: 30, 5: 6, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNestsAndCounts(t *testing.T) {
	r := newRecorder()
	r.query = 7
	outer := r.in("outer", func() {
		inner := r.in("inner", func() {})
		r.count(inner, "samples", 3)
		r.count(inner, "samples", 4)
	})
	r.in("next", func() {})
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	in := r.spans[1]
	if in.Parent != outer || in.QueryID != 7 || in.Counts["samples"] != 7 {
		t.Errorf("inner span = %+v", in)
	}
	if r.spans[2].Parent != 0 {
		t.Errorf("a span opened after its predecessor closed must be a root, got parent %d", r.spans[2].Parent)
	}
	for _, s := range r.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	agg := aggregate(r.spans)
	if agg["inner"].counts["samples"] != 7 || len(agg["outer"].durs) != 1 {
		t.Errorf("aggregate = %+v", agg)
	}
}
