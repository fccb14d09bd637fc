package dsc

import (
	"testing"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/paperex"
)

// testState returns g's state before the first step; its scratch is
// released when the test ends.
func testState(t *testing.T, g *dag.Graph) *state {
	t.Helper()
	scratch := arena.Get()
	t.Cleanup(scratch.Release)
	s, err := newState(g, scratch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInitialLevelsMatchBLevels(t *testing.T) {
	s := testState(t, paperex.Graph())
	want := []int64{150, 74, 135, 95, 50} // paper Figure 14
	for i, w := range want {
		if s.level[i] != w {
			t.Errorf("level(%d) = %d, want %d", i+1, s.level[i], w)
		}
	}
}

func TestStartBoundAndPriority(t *testing.T) {
	s := testState(t, paperex.Graph())
	// Before anything is scheduled, every node's startbound is 0 and
	// priority equals its level; node 1 (ID 0) tops the free list.
	if got := s.sb[0]; got != 0 {
		t.Errorf("startbound = %d, want 0", got)
	}
	top := s.freeQ.pop()
	if top != 0 {
		t.Errorf("top free = %d, want 0", top)
	}
	// Schedule node 1 on a fresh cluster at time 0.
	s.place(top, -1)
	if s.st[0] != 0 || s.free[0] != 10 {
		t.Fatalf("place: st=%d free=%v", s.st[0], s.free)
	}
	// Node 2 (ID 1): startbound = finish(1) + edge = 10 + 5 = 15, and
	// its priority adds its level of 74.
	if got := s.sb[1]; got != 15 {
		t.Errorf("startbound(2) = %d, want 15", got)
	}
	if got := s.priority(1); got != 15+74 {
		t.Errorf("priority(2) = %d, want %d", got, 15+74)
	}
	// startOn cluster 0 zeroes the edge: max(free=10, 10+0) = 10.
	if got := s.startOn(0, 1); got != 10 {
		t.Errorf("startOn(c0, 2) = %d, want 10", got)
	}
}

func TestFreeAndPartialFreeClassification(t *testing.T) {
	g := dag.New("classify")
	a := g.AddNode(10)
	b := g.AddNode(10)
	j := g.AddNode(10)
	g.MustAddEdge(a, j, 5)
	g.MustAddEdge(b, j, 5)
	s := testState(t, g)
	if len(s.freeQ.task) != 2 {
		t.Fatalf("free heap holds %v, want the two sources", s.freeQ.task)
	}
	if ny := s.topPartialFree(); ny != -1 {
		t.Errorf("join with no scheduled preds is partially free: top = %d", ny)
	}
	// The sources tie on priority; the lower ID comes first.
	if v := s.freeQ.pop(); v != a {
		t.Fatalf("top free = %d, want %d", v, a)
	}
	s.place(a, -1)
	if ny := s.topPartialFree(); ny != j {
		t.Errorf("top partially free = %d, want the join %d", ny, j)
	}
	if v := s.freeQ.pop(); v != b {
		t.Fatalf("top free = %d, want %d", v, b)
	}
	s.place(b, -1)
	if len(s.freeQ.task) != 1 || s.freeQ.task[0] != j {
		t.Errorf("free heap holds %v, want only the join", s.freeQ.task)
	}
	if ny := s.topPartialFree(); ny != -1 {
		t.Errorf("free node must not also be partially free: top = %d", ny)
	}
}

func TestBestParentClusterPicksMinStart(t *testing.T) {
	g := dag.New("pick")
	a := g.AddNode(50) // finishes at 50
	b := g.AddNode(10) // finishes at 10
	j := g.AddNode(10)
	g.MustAddEdge(a, j, 100) // via a: on a's cluster start max(50, 10+100)=...
	g.MustAddEdge(b, j, 1)
	s := testState(t, g)
	s.place(a, -1) // cluster 0, finish 50
	s.place(b, -1) // cluster 1, finish 10
	// startOn(c0, j) = max(50, arrive from b = 10+1 = 11) = 50.
	// startOn(c1, j) = max(10, arrive from a = 50+100 = 150) = 150.
	c, ok := s.bestParentCluster(j)
	if !ok || c != 0 {
		t.Errorf("bestParentCluster = %d,%v, want cluster 0", c, ok)
	}
}
