// Package sched defines the common schedule model shared by every
// heuristic: a Placement (which processor runs each task, and in what
// order), the greedy timing builder that turns a placement into start
// and finish times under the paper's execution model, schedule
// validation, performance metrics, and a textual Gantt chart.
//
// Timing model (paper §2): homogeneous processors, fully connected;
// tasks on the same processor communicate for free; tasks on different
// processors pay the PDG edge weight, independent of which processors;
// communication overlaps computation; no task duplication.
package sched

import (
	"fmt"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
)

// Placement maps every node of a graph to a processor and fixes the
// execution order on each processor. It is the only thing a heuristic
// must produce; timing is computed by Build so that all heuristics are
// measured under the identical execution model.
type Placement struct {
	// Proc[n] is the processor assigned to node n.
	Proc []int
	// Order[p] lists the nodes of processor p in execution order.
	Order [][]dag.NodeID
}

// NewPlacement returns a placement for n nodes and no processors yet;
// all Proc entries start at -1 (unassigned).
func NewPlacement(n int) *Placement {
	pl := &Placement{Proc: make([]int, n)}
	for i := range pl.Proc {
		pl.Proc[i] = -1
	}
	return pl
}

// Assign appends node v to processor p's order, growing the processor
// set as needed. Assign panics if v was already assigned: a heuristic
// placing a node twice is a bug, never a recoverable condition.
func (pl *Placement) Assign(v dag.NodeID, p int) {
	if pl.Proc[v] != -1 {
		panic(fmt.Sprintf("sched: node %d assigned twice", v))
	}
	if p < 0 {
		panic(fmt.Sprintf("sched: negative processor %d", p))
	}
	for len(pl.Order) <= p {
		pl.Order = append(pl.Order, nil)
	}
	pl.Proc[v] = p
	pl.Order[p] = append(pl.Order[p], v)
}

// NumProcs returns the number of processors with at least one task.
func (pl *Placement) NumProcs() int {
	n := 0
	for _, q := range pl.Order {
		if len(q) > 0 {
			n++
		}
	}
	return n
}

// Compact renumbers processors so that used processors are 0..P-1 with
// empty ones removed, preserving relative order. It returns pl for
// chaining.
func (pl *Placement) Compact() *Placement {
	scratch := arena.Get()
	defer scratch.Release()
	remap := scratch.Ints(len(pl.Order))
	var orders [][]dag.NodeID
	for p, q := range pl.Order {
		if len(q) == 0 {
			remap[p] = -1
			continue
		}
		remap[p] = len(orders)
		orders = append(orders, q)
	}
	for v, p := range pl.Proc {
		if p >= 0 {
			pl.Proc[v] = remap[p]
		}
	}
	pl.Order = orders
	return pl
}

// Check verifies that the placement covers each node of g exactly once
// and that Proc and Order agree.
func (pl *Placement) Check(g *dag.Graph) error {
	n := g.NumNodes()
	if len(pl.Proc) != n {
		return fmt.Errorf("sched: placement for %d nodes, graph has %d", len(pl.Proc), n)
	}
	scratch := arena.Get()
	defer scratch.Release()
	seen := scratch.Bools(n)
	for p, q := range pl.Order {
		for _, v := range q {
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("sched: order references node %d outside graph", v)
			}
			if seen[v] {
				return fmt.Errorf("sched: node %d appears twice in orders", v)
			}
			seen[v] = true
			if pl.Proc[v] != p {
				return fmt.Errorf("sched: node %d in order of proc %d but Proc says %d", v, p, pl.Proc[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: node %d not placed", v)
		}
	}
	return nil
}

// Serial returns the placement that runs the whole graph on a single
// processor in topological order. It is the fallback used by CLANS'
// speedup guard and a baseline in the benches.
func Serial(g *dag.Graph) (*Placement, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	pl := NewPlacement(g.NumNodes())
	for _, v := range order {
		pl.Assign(v, 0)
	}
	return pl, nil
}
