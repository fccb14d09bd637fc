package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"schedcomp/internal/dag"
)

// chain3 builds 0 -> 1 -> 2 with weights 10,20,30 and edge weights 5,7.
func chain3() *dag.Graph {
	g := dag.New("chain3")
	a := g.AddNode(10)
	b := g.AddNode(20)
	c := g.AddNode(30)
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(b, c, 7)
	return g
}

// fork builds 0 -> {1, 2} with weights 10,20,30, edges 5 and 6.
func fork() *dag.Graph {
	g := dag.New("fork")
	a := g.AddNode(10)
	b := g.AddNode(20)
	c := g.AddNode(30)
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(a, c, 6)
	return g
}

func TestSerialPlacement(t *testing.T) {
	g := chain3()
	pl, err := Serial(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 60 {
		t.Errorf("serial makespan = %d, want 60", s.Makespan)
	}
	if s.NumProcs != 1 {
		t.Errorf("NumProcs = %d, want 1", s.NumProcs)
	}
	if sp := s.Speedup(); math.Abs(sp-1.0) > 1e-12 {
		t.Errorf("serial speedup = %v, want 1", sp)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildPaysCommAcrossProcs(t *testing.T) {
	g := fork()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 0) // same proc: no comm
	pl.Assign(2, 1) // cross: pays 6
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ByNode[1].Start; got != 10 {
		t.Errorf("node 1 start = %d, want 10 (no comm)", got)
	}
	if got := s.ByNode[2].Start; got != 16 {
		t.Errorf("node 2 start = %d, want 16 (10 + edge 6)", got)
	}
	if s.Makespan != 46 {
		t.Errorf("makespan = %d, want 46", s.Makespan)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildRespectsProcessorOrder(t *testing.T) {
	// Two independent tasks forced onto one processor run sequentially
	// in placement order.
	g := dag.New("indep")
	a := g.AddNode(10)
	b := g.AddNode(20)
	_ = a
	_ = b
	pl := NewPlacement(2)
	pl.Assign(1, 0)
	pl.Assign(0, 0)
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if s.ByNode[1].Start != 0 || s.ByNode[0].Start != 20 {
		t.Errorf("order not respected: %+v", s.ByNode)
	}
}

func TestBuildDetectsDeadlock(t *testing.T) {
	// 0 -> 1 but the placement runs 1 before 0 on the same processor.
	g := dag.New("deadlock")
	a := g.AddNode(10)
	b := g.AddNode(10)
	g.MustAddEdge(a, b, 1)
	pl := NewPlacement(2)
	pl.Assign(b, 0)
	pl.Assign(a, 0)
	if _, err := Build(g, pl); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestBuildRejectsIncompletePlacement(t *testing.T) {
	g := chain3()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 0)
	// node 2 unplaced
	if _, err := Build(g, pl); err == nil {
		t.Fatal("expected error for unplaced node")
	}
}

func TestPlacementAssignTwicePanics(t *testing.T) {
	pl := NewPlacement(1)
	pl.Assign(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("double Assign did not panic")
		}
	}()
	pl.Assign(0, 1)
}

func TestPlacementCompact(t *testing.T) {
	pl := NewPlacement(2)
	pl.Assign(0, 3)
	pl.Assign(1, 7)
	pl.Compact()
	if pl.NumProcs() != 2 {
		t.Errorf("NumProcs = %d, want 2", pl.NumProcs())
	}
	if pl.Proc[0] != 0 || pl.Proc[1] != 1 {
		t.Errorf("Proc = %v, want [0 1]", pl.Proc)
	}
	if len(pl.Order) != 2 {
		t.Errorf("Order lanes = %d, want 2", len(pl.Order))
	}
}

func TestPlacementCheckCatchesMismatch(t *testing.T) {
	g := chain3()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 0)
	pl.Assign(2, 1)
	pl.Proc[2] = 0 // corrupt: Proc disagrees with Order
	if err := pl.Check(g); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestEfficiency(t *testing.T) {
	g := fork()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 1)
	pl.Assign(2, 2)
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Speedup() / 3
	if math.Abs(s.Efficiency()-want) > 1e-12 {
		t.Errorf("Efficiency = %v, want %v", s.Efficiency(), want)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := fork()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 0)
	pl.Assign(2, 0)
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	s.ByNode[2].Start = 5 // force overlap with node 0
	s.ByNode[2].Finish = 35
	if err := s.Validate(); err == nil {
		t.Fatal("expected overlap/precedence error")
	}
}

// TestValidateLongUnsortedBucket puts every task of a wide graph on one
// processor in descending node order, the worst case for the insertion
// sort Validate buckets with, so the pdqsort fallback must order it.
func TestValidateLongUnsortedBucket(t *testing.T) {
	const n = 3000
	g := dag.New("wide")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + i%7))
	}
	pl := NewPlacement(n)
	for v := n - 1; v >= 0; v-- {
		pl.Assign(dag.NodeID(v), 0)
	}
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid serial schedule rejected: %v", err)
	}
	s.ByNode[0].Start-- // overlaps node 1, which runs just before it
	s.ByNode[0].Finish--
	if err := s.Validate(); err == nil {
		t.Fatal("expected an overlap error")
	}
}

func TestValidateCatchesCommViolation(t *testing.T) {
	g := chain3()
	pl := NewPlacement(3)
	pl.Assign(0, 0)
	pl.Assign(1, 1)
	pl.Assign(2, 1)
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	s.ByNode[1].Start = 10 // ignores the 5-unit edge from proc 0
	s.ByNode[1].Finish = 30
	if err := s.Validate(); err == nil {
		t.Fatal("expected communication violation")
	}
}

func TestGanttRenders(t *testing.T) {
	g := chain3()
	pl, _ := Serial(g)
	s, _ := Build(g, pl)
	out := s.Gantt(40)
	if out == "" || len(out) < 10 {
		t.Error("Gantt output empty")
	}
	tbl := s.Table()
	if tbl == "" {
		t.Error("Table output empty")
	}
}

func TestEmptyGraphSchedule(t *testing.T) {
	g := dag.New("empty")
	pl, err := Serial(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 0 {
		t.Errorf("empty makespan = %d", s.Makespan)
	}
}

// randomDAG as in the dag package tests: edges go low ID -> high ID.
func randomDAG(rng *rand.Rand, n int, density float64) *dag.Graph {
	g := dag.New("random")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + rng.Intn(100)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), int64(rng.Intn(50)))
			}
		}
	}
	return g
}

// Property: a random topologically-ordered placement always builds to
// a schedule that passes validation, and the serial placement always
// has speedup exactly 1.
func TestQuickBuildValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(30), 0.25)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		nprocs := 1 + rng.Intn(4)
		pl := NewPlacement(g.NumNodes())
		for _, v := range order {
			pl.Assign(v, rng.Intn(nprocs))
		}
		s, err := Build(g, pl)
		if err != nil {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		serial, err := Serial(g)
		if err != nil {
			return false
		}
		ss, err := Build(g, serial)
		if err != nil {
			return false
		}
		return ss.Makespan == g.SerialTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
