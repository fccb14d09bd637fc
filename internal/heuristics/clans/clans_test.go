package clans

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/gen"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
)

func TestConformance(t *testing.T) {
	schedtest.Conform(t, func() heuristics.Scheduler { return New() })
}

func TestPaperExampleMatchesFigure16(t *testing.T) {
	// The paper's CLANS walkthrough ends with parallel time 130 on two
	// processors: node 2 runs concurrently with the {3,4} chain.
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan != paperex.CLANSParallelTime {
		t.Errorf("makespan = %d, want %d", sc.Makespan, paperex.CLANSParallelTime)
	}
	if sc.NumProcs != 2 {
		t.Errorf("procs = %d, want 2", sc.NumProcs)
	}
	// Node 2 (paper numbering; ID 1) must sit alone on its processor.
	alone := sc.ByNode[1].Proc
	for v, a := range sc.ByNode {
		if v != 1 && a.Proc == alone {
			t.Errorf("node %d shares processor with node 2", v)
		}
	}
}

func TestSerializesWhenCommDominates(t *testing.T) {
	// Same shape as the paper example but with a crushing edge into
	// node 2: parallelization can no longer win, so everything lands
	// on one processor at exactly serial time.
	g := dag.New("comm-heavy")
	n := make([]dag.NodeID, 5)
	for i, w := range []int64{10, 20, 30, 40, 50} {
		n[i] = g.AddNode(w)
	}
	g.MustAddEdge(n[0], n[1], 500)
	g.MustAddEdge(n[0], n[2], 500)
	g.MustAddEdge(n[2], n[3], 500)
	g.MustAddEdge(n[1], n[4], 500)
	g.MustAddEdge(n[3], n[4], 500)
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan != g.SerialTime() {
		t.Errorf("makespan = %d, want serial %d", sc.Makespan, g.SerialTime())
	}
	if sc.NumProcs != 1 {
		t.Errorf("procs = %d, want 1", sc.NumProcs)
	}
}

// TestNeverBelowSerial is the paper's Table 2 headline: CLANS can never
// produce a speedup below 1.
func TestNeverBelowSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := schedtest.RandomDAG(rng, 1+rng.Intn(60), 0.05+0.4*rng.Float64())
		sc, err := heuristics.Run(New(), g)
		if err != nil {
			return false
		}
		return sc.Makespan <= g.SerialTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNeverBelowSerialOnGeneratedPDGs(t *testing.T) {
	for i, band := range gen.PaperBands() {
		for seed := int64(0); seed < 6; seed++ {
			g := schedtest.GeneratedDAG(1000*int64(i)+seed, 2+int(seed)%4, band)
			sc, err := heuristics.Run(New(), g)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Makespan > g.SerialTime() {
				t.Errorf("band %v seed %d: makespan %d > serial %d",
					band, seed, sc.Makespan, g.SerialTime())
			}
		}
	}
}

func TestPrimitiveGraphHandled(t *testing.T) {
	// The N-structure is primitive; CLANS must still schedule it
	// validly and not exceed serial time.
	g := dag.New("N")
	a := g.AddNode(10)
	b := g.AddNode(20)
	c := g.AddNode(30)
	d := g.AddNode(40)
	g.MustAddEdge(a, c, 2)
	g.MustAddEdge(a, d, 2)
	g.MustAddEdge(b, d, 2)
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan > g.SerialTime() {
		t.Errorf("primitive makespan %d > serial %d", sc.Makespan, g.SerialTime())
	}
	// With cheap edges it should actually find parallelism.
	if sc.NumProcs < 2 {
		t.Errorf("expected parallel schedule for cheap-comm N, got %d procs", sc.NumProcs)
	}
}

func TestIndependentTasksParallelize(t *testing.T) {
	g := dag.New("indep")
	for i := 0; i < 4; i++ {
		g.AddNode(100)
	}
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan != 100 || sc.NumProcs != 4 {
		t.Errorf("independent tasks: makespan %d on %d procs, want 100 on 4",
			sc.Makespan, sc.NumProcs)
	}
}

func TestSpeedupCheckDisabled(t *testing.T) {
	// Without the speedup check CLANS always parallelizes; schedules
	// must still validate, and on the comm-heavy graph the makespan
	// must exceed the guarded scheduler's.
	g := dag.New("comm-heavy")
	n := make([]dag.NodeID, 5)
	for i, w := range []int64{10, 20, 30, 40, 50} {
		n[i] = g.AddNode(w)
	}
	g.MustAddEdge(n[0], n[1], 500)
	g.MustAddEdge(n[0], n[2], 500)
	g.MustAddEdge(n[2], n[3], 500)
	g.MustAddEdge(n[1], n[4], 500)
	g.MustAddEdge(n[3], n[4], 500)

	unguarded := &CLANS{SpeedupCheck: false}
	sc := schedtest.BuildAndValidate(t, unguarded, g)
	if sc.Makespan <= g.SerialTime() {
		t.Errorf("unguarded CLANS should pay the communication: makespan %d vs serial %d",
			sc.Makespan, g.SerialTime())
	}
}

func TestRegistered(t *testing.T) {
	s, err := heuristics.New("CLANS")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "CLANS" {
		t.Errorf("Name = %q", s.Name())
	}
}

// TestLargePrimitiveClan schedules a 2000-node sparse random DAG whose
// clan tree holds one primitive clan of 1962 nodes. A lane scheduler
// that scanned every (ready task, lane) pair at every step took 9.9 s
// here.
func TestLargePrimitiveClan(t *testing.T) {
	g := schedtest.RandomDAG(rand.New(rand.NewSource(2000)), 2000, 4.0/2000)
	largest := 0
	for _, n := range primitives(t, g) {
		largest = max(largest, len(n.Members))
	}
	if largest != 1962 {
		t.Fatalf("largest primitive clan has %d nodes, want 1962", largest)
	}
	start := time.Now()
	if _, err := heuristics.RunContext(context.Background(), New(), g); err != nil {
		t.Fatal(err)
	}
	if elapsed, bound := time.Since(start), raceSlowdown*500*time.Millisecond; elapsed > bound {
		t.Errorf("CLANS took %v, bound %v", elapsed, bound)
	}
}
