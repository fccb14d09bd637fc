package dag

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// allocGraph is a fixed 36-node, 88-edge graph: the size of a typical
// served request.
func allocGraph() *Graph {
	rng := rand.New(rand.NewSource(36))
	g := New("alloc")
	for i := 0; i < 36; i++ {
		g.AddNode(int64(1 + rng.Intn(100)))
	}
	for g.NumEdges() < 88 {
		u, v := rng.Intn(36), rng.Intn(36)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if _, ok := g.EdgeWeight(NodeID(u), NodeID(v)); ok {
			continue
		}
		g.MustAddEdge(NodeID(u), NodeID(v), int64(rng.Intn(60)))
	}
	return g
}

// The request path's graph layers stay within fixed allocation
// ceilings. Decoding, hashing and cloning a 36-node graph used to cost
// 223, 185 and 172 allocations; per-edge appends, sort.Slice and the
// re-parsed body dominated. Decoding fell again, from 52 to 31, when
// the single-pass scanner replaced encoding/json's reflection for the
// body shape clients send, and to 24 when the topological sort behind
// Validate stopped growing its ready list.
func TestRequestPathAllocCeilings(t *testing.T) {
	g := allocGraph()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		// invalidate drops the memo, so every run canonicalizes afresh
		// (CSR included), as a request's freshly decoded graph does.
		{"CanonicalHash", 30, func() { g.invalidate(); g.CanonicalHash() }},
		{"CanonicalClone", 8, func() { g.CanonicalClone() }},
		{"ReadJSON", 24, func() {
			if _, err := ReadJSON(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(50, c.f)
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// The topological sort and the two reachability closures allocate a
// fixed handful of arrays, whatever the graph's size: the order and
// one buffer for the in-degrees and the ready heap; the words, set
// headers and pointers of each closure. A bit set per node used to
// cost two allocations each.
func TestAnalysisAllocCeilings(t *testing.T) {
	g := allocGraph()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"TopoOrder", 2, func() {
			if _, err := g.computeTopoOrder(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Descendants", 3, func() { g.computeDescendants(order) }},
		{"Ancestors", 3, func() { g.computeAncestors(order) }},
	} {
		// The compute functions read the memoized CSR under the lock.
		got := testing.AllocsPerRun(50, func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			c.f()
		})
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %v allocs per call, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// The canonical encoding is sized from its uvarint lengths: the buffer
// holds exactly the encoding, with no slack retained by the memo or
// the schedule cache's copy of it.
func TestCanonicalEncodingExactSize(t *testing.T) {
	for _, g := range []*Graph{allocGraph(), New("empty"), diamondWide(300)} {
		if enc := g.CanonicalEncoding(); cap(enc) != len(enc) {
			t.Errorf("%s: encoding of %d bytes in a %d-byte buffer", g.Name(), len(enc), cap(enc))
		}
	}
}

// diamondWide is a fork-join of width w with weights large enough to
// need multi-byte uvarints.
func diamondWide(w int) *Graph {
	g := New("wide")
	src := g.AddNode(MaxWireWeight)
	sink := g.AddNode(1 << 20)
	for i := 0; i < w; i++ {
		v := g.AddNode(int64(1 + i*i))
		g.MustAddEdge(src, v, int64(i)<<14)
		g.MustAddEdge(v, sink, 127+int64(i))
	}
	return g
}
