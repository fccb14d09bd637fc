// Package mcp implements the Modified Critical Path heuristic of Wu &
// Gajski, as described in Appendix A.2 of the paper.
//
// MCP computes the ALAP (as-late-as-possible) start time T_L of every
// node from the communication-weighted critical path, associates with
// each node the list of T_L values of itself and all its descendants,
// orders the nodes by comparing those lists, and then schedules them
// one by one onto the processor that allows the earliest start time,
// using insertion into idle gaps; a new processor is opened when it
// strictly beats every existing one. The placement is the Best and
// Commit of the list-scheduling kernel (internal/heuristics/listsched)
// under its gap rule.
//
// Ordering note: the paper's Figure 9 says to sort both the per-node
// lists and the global list "in decreasing order", which would schedule
// the least critical node first and contradicts the algorithm's own
// worked example. We follow Wu & Gajski (and the standard descriptions
// of MCP): per-node lists ascending, global order ascending
// lexicographic, so the node with the smallest ALAP time — the most
// critical one — is scheduled first. Because a node's own T_L is
// strictly smaller than every descendant's, this order is topologically
// consistent.
package mcp

import (
	"cmp"
	"context"
	"slices"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("MCP", func() heuristics.Scheduler { return New() })
}

// MCP is the scheduler. Insertion controls whether tasks may be placed
// into idle gaps between already scheduled tasks (the classic MCP
// behaviour) or only appended after the last task of a processor; the
// ablation benches compare the two.
type MCP struct {
	Insertion bool
}

// New returns an MCP scheduler with gap insertion enabled.
func New() *MCP { return &MCP{Insertion: true} }

// Name implements heuristics.Scheduler.
func (m *MCP) Name() string { return "MCP" }

// Schedule implements heuristics.Scheduler.
func (m *MCP) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return m.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (m *MCP) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	order, err := m.order(g)
	if err != nil {
		return nil, err
	}
	scratch := arena.Get()
	defer scratch.Release()
	k := listsched.New(g, scratch, m.Insertion)
	for _, v := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start, p := k.Best(v)
		k.Commit(v, p, start)
	}
	return k.Placement(), nil
}

// order returns the MCP scheduling order: nodes sorted by ascending
// lexicographic comparison of their ALAP-time lists (own T_L plus all
// descendants', each list ascending). Ties break to the smaller node
// ID so the result is deterministic.
//
// A node's own T_L is strictly below every descendant's, so it heads
// the node's list, and two lists can only compare past their first
// element when the nodes' T_L are equal. The nodes are therefore
// sorted by (T_L, ID), and the lists are built and compared only for
// nodes that share their T_L with another. The descendant closures are
// computed only when some T_L is shared.
func (m *MCP) order(g *dag.Graph) ([]dag.NodeID, error) {
	alap, err := g.ALAPTimes()
	if err != nil {
		return nil, err
	}
	keys := make([]nodeKey, len(alap))
	for i, t := range alap {
		keys[i] = nodeKey{t: t, v: dag.NodeID(i)}
	}
	// lists holds the ALAP lists of tied nodes back to back; a key's
	// lo:hi indexes its own. Untied keys have empty lists and never
	// reach the list comparison, since their T_L decides.
	var lists []int64
	byList := func(a, b nodeKey) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if c := slices.Compare(lists[a.lo:a.hi], lists[b.lo:b.hi]); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	}
	slices.SortFunc(keys, byList)
	tied := false
	for i := 1; i < len(keys); i++ {
		if keys[i].t == keys[i-1].t {
			keys[i].tied, keys[i-1].tied, tied = true, true, true
		}
	}
	if tied {
		desc, err := g.Descendants()
		if err != nil {
			return nil, err
		}
		size := 0
		for _, k := range keys {
			if k.tied {
				size += desc[k.v].Count() + 1
			}
		}
		lists = make([]int64, 0, size)
		// keys is in T_L order, so collecting descendants in key order
		// yields each list sorted. Keys before i cannot be descendants:
		// their T_L is not above node i's.
		for i := range keys {
			k := &keys[i]
			if !k.tied {
				continue
			}
			d := desc[k.v]
			k.lo = len(lists)
			lists = append(lists, k.t)
			for _, j := range keys[i+1:] {
				if d.Contains(int(j.v)) {
					lists = append(lists, j.t)
				}
			}
			k.hi = len(lists)
		}
		slices.SortFunc(keys, byList)
	}
	order := make([]dag.NodeID, len(keys))
	for i, k := range keys {
		order[i] = k.v
	}
	return order, nil
}

// nodeKey is one node's place in the MCP order: its T_L and ID, and
// for a node that shares its T_L, its ALAP list as lists[lo:hi].
type nodeKey struct {
	t      int64
	v      dag.NodeID
	tied   bool
	lo, hi int
}
