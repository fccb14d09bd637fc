package hu

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

func TestPaperExampleSpreads(t *testing.T) {
	// HU's comm-oblivious placement puts every task on its own (first
	// idle) processor; on the appendix example that costs the full
	// serial time 150 across 5 processors — the behaviour behind HU's
	// uniformly poor numbers in the paper.
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan != 150 {
		t.Errorf("makespan = %d, want 150", sc.Makespan)
	}
	if sc.NumProcs != 5 {
		t.Errorf("procs = %d, want 5", sc.NumProcs)
	}
}

func TestFirstTaskOnFirstProcessor(t *testing.T) {
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	// Node 1 (ID 0) has the highest level (150) and no predecessors.
	if sc.ByNode[0].Proc != 0 || sc.ByNode[0].Start != 0 {
		t.Errorf("first task at proc %d start %d, want proc 0 start 0",
			sc.ByNode[0].Proc, sc.ByNode[0].Start)
	}
}

func TestEarliestStartPolicyAvoidsComm(t *testing.T) {
	// The comm-aware ablation should keep a heavy chain together,
	// unlike the default policy.
	g := dag.New("chain")
	a := g.AddNode(10)
	b := g.AddNode(10)
	g.MustAddEdge(a, b, 1000)
	def := schedtest.BuildAndValidate(t, New(), g)
	aware := schedtest.BuildAndValidate(t, &HU{Policy: EarliestStart}, g)
	if aware.NumProcs != 1 || aware.Makespan != 20 {
		t.Errorf("EarliestStart: %d procs makespan %d, want 1/20",
			aware.NumProcs, aware.Makespan)
	}
	if def.Makespan <= aware.Makespan && def.NumProcs == 1 {
		t.Error("default HU unexpectedly comm-aware")
	}
}

func TestCommOblivousSpreadPaysDearly(t *testing.T) {
	// Wide fork with heavy edges: HU spreads and pays each edge; a
	// serial schedule would be cheaper. This is exactly the paper's
	// "retardation" phenomenon.
	g := dag.New("fork")
	root := g.AddNode(10)
	for i := 0; i < 4; i++ {
		v := g.AddNode(10)
		g.MustAddEdge(root, v, 500)
	}
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan <= g.SerialTime() {
		t.Errorf("expected retardation: makespan %d vs serial %d",
			sc.Makespan, g.SerialTime())
	}
}

func TestPriorityUsesCommLevel(t *testing.T) {
	// Two sources: one with a small weight but a heavy out-edge (high
	// level), one heavy standalone. The high-level source must be
	// scheduled first (processor 0).
	g := dag.New("prio")
	hot := g.AddNode(5)
	tail := g.AddNode(5)
	g.MustAddEdge(hot, tail, 1000) // level(hot) = 1010
	cold := g.AddNode(500)         // level 500
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.ByNode[hot].Proc != 0 {
		t.Errorf("hot source should go first on proc 0, got %d", sc.ByNode[hot].Proc)
	}
	if sc.ByNode[cold].Proc == 0 {
		t.Errorf("cold source should have landed on a later processor")
	}
}
