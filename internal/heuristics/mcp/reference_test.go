package mcp

import (
	"sort"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/sched"
)

// slot is a scheduled interval on a reference processor timeline.
type slot struct {
	node   dag.NodeID
	start  int64
	finish int64
}

// referenceSchedule is MCP's placement loop as it read before the
// list-scheduling kernel, kept as the test oracle: every task, in MCP
// order, scans every processor's whole timeline for its earliest start
// and opens a new processor only when that is strictly earlier.
func referenceSchedule(m *MCP, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	order, err := m.order(g)
	if err != nil {
		return nil, err
	}

	proc := make([]int, n) // node -> processor
	start := make([]int64, n)
	finish := make([]int64, n)
	var timelines [][]slot // per processor, sorted by start

	for _, v := range order {
		// Earliest data-ready time on a fresh processor: every incoming
		// edge pays communication.
		var bound int64
		for _, a := range g.Preds(v) {
			t := finish[a.To] + a.Weight
			if t > bound {
				bound = t
			}
		}
		bestP, bestStart := -1, int64(0)
		for p := range timelines {
			st := referenceEarliestOn(m, g, timelines[p], proc, finish, v, p)
			if bestP == -1 || st < bestStart {
				bestP, bestStart = p, st
			}
		}
		if bestP == -1 || bound < bestStart {
			// A new processor strictly beats every existing one.
			bestP, bestStart = len(timelines), bound
			timelines = append(timelines, nil)
		}
		proc[v] = bestP
		start[v] = bestStart
		finish[v] = bestStart + g.Weight(v)
		timelines[bestP] = referenceInsertSlot(timelines[bestP], slot{node: v, start: start[v], finish: finish[v]})
	}

	for p, tl := range timelines {
		for _, s := range tl {
			pl.Assign(s.node, p)
		}
	}
	return pl, nil
}

// referenceEarliestOn computes the earliest start of v on processor p
// given the current timeline, honouring communication costs from
// predecessors on other processors. With Insertion enabled it may use
// an idle gap.
func referenceEarliestOn(m *MCP, g *dag.Graph, tl []slot, proc []int, finish []int64, v dag.NodeID, p int) int64 {
	var ready int64
	for _, a := range g.Preds(v) {
		t := finish[a.To]
		if proc[a.To] != p {
			t += a.Weight
		}
		if t > ready {
			ready = t
		}
	}
	w := g.Weight(v)
	if !m.Insertion {
		if len(tl) > 0 {
			if f := tl[len(tl)-1].finish; f > ready {
				return f
			}
		}
		return ready
	}
	// Scan gaps in start order for the first hole of length ≥ w at or
	// after ready.
	cur := ready
	for _, s := range tl {
		if cur+w <= s.start {
			return cur
		}
		if s.finish > cur {
			cur = s.finish
		}
	}
	return cur
}

func referenceInsertSlot(tl []slot, s slot) []slot {
	i := sort.Search(len(tl), func(i int) bool { return tl[i].start >= s.start })
	tl = append(tl, slot{})
	copy(tl[i+1:], tl[i:])
	tl[i] = s
	return tl
}

// requireSamePlacements schedules g with MCP, with and without gap
// insertion, and with the reference, and fails on any divergence in
// processor or order.
func requireSamePlacements(t *testing.T, g *dag.Graph, label string) {
	t.Helper()
	for _, m := range []*MCP{{Insertion: true}, {Insertion: false}} {
		fast, err := m.Schedule(g)
		if err != nil {
			t.Fatalf("%s: MCP (insertion %v): %v", label, m.Insertion, err)
		}
		slow, err := referenceSchedule(m, g)
		if err != nil {
			t.Fatalf("%s: reference (insertion %v): %v", label, m.Insertion, err)
		}
		if a, b := schedtest.PlacementString(fast), schedtest.PlacementString(slow); a != b {
			t.Fatalf("%s: MCP (insertion %v) and its timeline reference diverge\n MCP:       %s\n reference: %s", label, m.Insertion, a, b)
		}
	}
}

// TestMatchesReference holds MCP over the kernel's Best to the
// timeline scan, byte for byte, with and without gap insertion.
func TestMatchesReference(t *testing.T) {
	for _, ng := range schedtest.ReferenceCorpus(t) {
		requireSamePlacements(t, ng.Graph, ng.Label)
	}
}

// FuzzMCPReference holds MCP to the reference on fuzz-built DAGs of up
// to 40 nodes.
func FuzzMCPReference(f *testing.F) {
	for _, seed := range schedtest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSamePlacements(t, schedtest.FuzzGraph(data), "fuzz graph")
	})
}
