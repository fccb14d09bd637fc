package etf

import (
	"testing"

	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
)

func TestConformance(t *testing.T) {
	schedtest.Conform(t, func() heuristics.Scheduler { return New() })
}

func TestPaperExample(t *testing.T) {
	// ETF finds the same two-processor 130 schedule the other
	// earliest-start methods find (golden value of this
	// implementation; equal to the known optimum).
	sc := schedtest.BuildAndValidate(t, New(), paperex.Graph())
	if sc.Makespan != 130 {
		t.Errorf("makespan = %d, want 130", sc.Makespan)
	}
}

func TestGlobalEarliestStartOrder(t *testing.T) {
	// Two ready tasks: low-level task can start at 0 on a fresh
	// processor, high-level task also at 0. ETF commits by earliest
	// start with level tiebreak; both start at 0 — the higher-level
	// one must land on processor 0 (committed first).
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.ByNode[0].Proc != 0 || sc.ByNode[0].Start != 0 {
		t.Errorf("root not committed first: %+v", sc.ByNode[0])
	}
}

func TestRegistered(t *testing.T) {
	if _, err := heuristics.New("ETF"); err != nil {
		t.Fatal(err)
	}
}
