package dls

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

func TestDynamicLevelPrefersUrgentTask(t *testing.T) {
	// Two ready tasks with equal start options: the one with the
	// higher static level has the greater dynamic level and commits
	// first (processor 0).
	g := dag.New("dl")
	hot := g.AddNode(10)
	tail := g.AddNode(200)
	g.MustAddEdge(hot, tail, 1)
	cold := g.AddNode(10)
	_ = cold
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.ByNode[hot].Proc != 0 || sc.ByNode[hot].Start != 0 {
		t.Errorf("urgent task not first: %+v", sc.ByNode[hot])
	}
}

func TestDLTradesUrgencyForEarlySlot(t *testing.T) {
	// A ready low-level task with an immediate slot can beat a
	// high-level task that would have to wait for communication:
	// construct hot's successor (level high, but gated by a heavy
	// message) vs a free independent task.
	g := dag.New("trade")
	a := g.AddNode(10)
	b := g.AddNode(50) // succ of a via heavy edge
	g.MustAddEdge(a, b, 1000)
	free := g.AddNode(10)
	sc := schedtest.BuildAndValidate(t, New(), g)
	// free must not be delayed behind the heavy chain.
	if sc.ByNode[free].Start != 0 {
		t.Errorf("independent task delayed to %d", sc.ByNode[free].Start)
	}
}
