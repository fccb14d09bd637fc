package dcp

import (
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
)

func TestConformance(t *testing.T) {
	schedtest.Conform(t, func() heuristics.Scheduler { return New() })
}

func TestPaperExample(t *testing.T) {
	sc := schedtest.BuildAndValidate(t, New(), paperex.Graph())
	if sc.Makespan != 130 {
		t.Errorf("makespan = %d, want 130 (golden; equals the optimum)", sc.Makespan)
	}
}

func TestZeroMobilityMeansCriticalPathFirst(t *testing.T) {
	// On the paper example the communication-inclusive critical path
	// is 1-3-4-5; DCP must schedule node 1 first and keep the path
	// together on one processor.
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	p := sc.ByNode[0].Proc
	for _, v := range []dag.NodeID{2, 3, 4} {
		if sc.ByNode[v].Proc != p {
			t.Errorf("critical path node %d not co-located", v)
		}
	}
}

func TestHeavyChainSerializes(t *testing.T) {
	g := dag.New("chain")
	var prev dag.NodeID = -1
	for i := 0; i < 6; i++ {
		v := g.AddNode(10)
		if prev >= 0 {
			g.MustAddEdge(prev, v, 300)
		}
		prev = v
	}
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.NumProcs != 1 || sc.Makespan != 60 {
		t.Errorf("%d procs makespan %d, want 1/60", sc.NumProcs, sc.Makespan)
	}
}

func TestCheapForkParallelizes(t *testing.T) {
	g := dag.New("fork")
	r := g.AddNode(10)
	for i := 0; i < 3; i++ {
		v := g.AddNode(100)
		g.MustAddEdge(r, v, 1)
	}
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.NumProcs < 3 {
		t.Errorf("procs = %d, want >= 3", sc.NumProcs)
	}
	if sc.Makespan != 111 {
		t.Errorf("makespan = %d, want 111", sc.Makespan)
	}
}

// requireSamePlacement schedules g with DCP and with the whole-graph
// reference and fails on any divergence in processor or order.
func requireSamePlacement(t *testing.T, g *dag.Graph, label string) {
	t.Helper()
	fast, err := New().Schedule(g)
	if err != nil {
		t.Fatalf("%s: DCP: %v", label, err)
	}
	slow, err := referenceSchedule(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if a, b := schedtest.PlacementString(fast), schedtest.PlacementString(slow); a != b {
		t.Fatalf("%s: DCP and the AEST/ALST reference diverge\n DCP:       %s\n reference: %s", label, a, b)
	}
}

// TestMatchesReference holds the b-level + AEST rank and the cone
// re-timing to the per-step AEST/ALST sweep, byte for byte.
func TestMatchesReference(t *testing.T) {
	for _, ng := range schedtest.ReferenceCorpus(t) {
		requireSamePlacement(t, ng.Graph, ng.Label)
	}
}

// FuzzDCPReference holds DCP to the reference on fuzz-built DAGs of
// up to 40 nodes.
func FuzzDCPReference(f *testing.F) {
	for _, seed := range schedtest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSamePlacement(t, schedtest.FuzzGraph(data), "fuzz graph")
	})
}
