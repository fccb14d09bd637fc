package sched

import (
	"schedcomp/internal/dag"
)

// Build turns a placement into a timed schedule under the common
// execution model. Start times are assigned greedily: a task starts as
// soon as (a) all its predecessors' data has arrived (finish time, plus
// edge weight when crossing processors) and (b) its processor has
// finished every task that precedes it in the placement order.
//
// Build commits ready queue heads one at a time. Each start is the
// maximum of the processor's previous finish and the data arrivals, so
// no start time depends on the order of the commits and the result is
// deterministic. It returns an error if the placement does not cover
// the graph or if the per-processor orders deadlock against the
// precedence constraints (which cannot happen for orders produced by a
// priority-driven heuristic, but is checked anyway).
func Build(g *dag.Graph, pl *Placement) (*Schedule, error) {
	if err := pl.Check(g); err != nil {
		return nil, err
	}
	// Under the uniform model processor labels are interchangeable, so
	// compact them for dense output (and an accurate processor count).
	pl.Compact()
	// The placement was checked above and Compact preserves validity,
	// so skip BuildWith's re-check.
	return buildWith(g, pl, UniformDelay)
}

// MustBuild is Build for placements known to be valid by construction;
// it panics on error. Used internally by heuristics after their own
// invariants guarantee validity.
func MustBuild(g *dag.Graph, pl *Placement) *Schedule {
	s, err := Build(g, pl)
	if err != nil {
		panic("sched: MustBuild: " + err.Error())
	}
	return s
}
