package main

import "testing"

func TestStreamIsSeededAndFreshRequestsAreUnique(t *testing.T) {
	a, err := newStream(7, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStream(7, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	repeats := 0
	for k := int64(0); k < 400; k++ {
		ba, err := a.body(k)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.body(k)
		if err != nil {
			t.Fatal(err)
		}
		if string(ba) != string(bb) {
			t.Fatalf("request %d differs between two streams of one seed", k)
		}
		g, err := a.graph(k)
		if err != nil {
			t.Fatal(err)
		}
		fp := g.CanonicalHash().String()
		if seen[fp] {
			repeats++
		}
		seen[fp] = true
	}
	// About 80% of requests come from 2400 repeat classes, so a few of 400
	// repeat; fresh ones never coincide with anything.
	if repeats == 0 || repeats > 200 {
		t.Errorf("%d of 400 requests repeated a canonical class", repeats)
	}

	fresh := &stream{seed: 7, bases: a.bases}
	classes := map[string]bool{}
	for k := int64(0); k < 300; k++ {
		g, err := fresh.graph(k)
		if err != nil {
			t.Fatal(err)
		}
		classes[g.CanonicalHash().String()] = true
	}
	if len(classes) != 300 {
		t.Errorf("300 fresh requests fall into %d canonical classes", len(classes))
	}
	for i, vs := range a.pool[:20] {
		want := ""
		for _, v := range vs {
			g, err := v.wire.graph()
			if err != nil {
				t.Fatal(err)
			}
			if fp := g.CanonicalHash().String(); want == "" {
				want = fp
			} else if fp != want {
				t.Fatalf("pool base %d: variants fall into different canonical classes", i)
			}
		}
	}
}
