// Package dcp implements a mobility-driven list scheduler inspired by
// Kwok & Ahmad's Dynamic Critical Path algorithm. Among the ready tasks
// it picks the one with the smallest mobility (ALST − AEST over the
// partial schedule — zero mobility means the task sits on the current
// dynamic critical path) and places it with gap insertion on the
// processor that minimizes its start, ties to the lower index, opening
// a new processor only when that is strictly earlier: the Best of the
// list-scheduling kernel (internal/heuristics/listsched) under its gap
// rule, which also keeps the timelines and the readiness countdown.
//
// Only ready tasks are placed, so every successor of an unplaced task
// is unplaced, and an unplaced task's ALST is the schedule-length bound
// minus its b-level. Its mobility is then the bound minus (b-level +
// AEST): the bound cancels from every comparison, so tasks rank by
// b-level + AEST, largest first, and no ALST is ever computed. AEST
// starts as the t-level; each commit pins the task at its start and
// re-times only its descendants, in topological order, stopping
// wherever a value does not change.
//
// Deviation from the original DCP: the original may reserve slots for
// tasks whose parents are not yet scheduled; the common placement
// model used by this testbed (per-processor orders replayed by one
// greedy builder, §2 of the paper) cannot express such reservations,
// so selection is restricted to ready tasks. The original also breaks
// processor ties with a lookahead that adds the critical child's start
// on each processor; this variant has no lookahead (see DESIGN.md).
// The registry name "DCP" refers to this variant throughout.
package dcp

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/bitset"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DCP", func() heuristics.Scheduler { return New() })
}

// DCP is the scheduler. The zero value is ready to use.
type DCP struct{}

// New returns a DCP scheduler.
func New() *DCP { return &DCP{} }

// Name implements heuristics.Scheduler.
func (d *DCP) Name() string { return "DCP" }

// Schedule implements heuristics.Scheduler.
func (d *DCP) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (d *DCP) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos, err := g.TopoPositions()
	if err != nil {
		return nil, err
	}
	bl, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	tl, err := g.TLevels()
	if err != nil {
		return nil, err
	}

	scratch := arena.Get()
	defer scratch.Release()
	k := listsched.New(g, scratch, true)
	ts := make([]task, n)
	bl, tl = bl[:n], tl[:n]
	for v := range ts {
		id := dag.NodeID(v)
		ts[v] = task{preds: g.Preds(id), succs: g.Succs(id), w: g.Weight(id), bl: bl[v], aest: tl[v]}
	}
	ready := append(scratch.NodeIDs(n)[:0], k.Sources()...)
	rt := retimer{order: order, pos: pos, ts: ts, dirty: scratch.Bitset(n)}

	for len(ready) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Take the ready task with minimal mobility (maximal b-level +
		// AEST), ties to smaller AEST, then smaller ID; every other
		// ready task stays in ready[:last].
		last := len(ready) - 1
		pick := ready[last]
		pt := &ts[pick]
		for i, v := range ready[:last] {
			t := &ts[v]
			r, rp := t.bl+t.aest, pt.bl+pt.aest
			if r > rp || (r == rp && (t.aest < pt.aest || (t.aest == pt.aest && v < pick))) {
				ready[i], pick, pt = pick, v, t
			}
		}
		ready = ready[:last]

		start, p := k.Best(pick)
		k.Commit(pick, p, start)
		ready = append(ready, k.Release(pick)...)
		rt.pin(pick, start)
	}
	return k.Placement(), nil
}

// task is one task's state during a run.
type task struct {
	preds []dag.Arc
	succs []dag.Arc
	w     int64 // execution weight
	bl    int64 // b-level: while unplaced, ALST is the bound minus it
	aest  int64 // AEST; the committed start once placed
}

// retimer keeps every AEST exact across commits. AEST(v) is the
// maximum over v's predecessors p of AEST(p) + w(p) + c(p, v), with
// placed tasks pinned at their start, so pinning a task can change
// only its descendants' values.
type retimer struct {
	order []dag.NodeID // topological order
	pos   []int        // topological position of each task
	ts    []task
	dirty bitset.Set // topological positions of the tasks to re-time
}

// pin fixes v's AEST at its committed start, then re-times v's
// descendants in topological order, so that each task's predecessors
// are final before it, and goes on from a task only when its value
// changed.
func (r *retimer) pin(v dag.NodeID, start int64) {
	if r.ts[v].aest == start {
		return
	}
	r.ts[v].aest = start
	for i := r.pos[v]; i >= 0; i = r.dirty.Next(i + 1) {
		u := r.order[i]
		t := &r.ts[u]
		if u != v {
			var e int64
			for _, a := range t.preds {
				p := &r.ts[a.To]
				e = max(e, p.aest+p.w+a.Weight)
			}
			if t.aest == e {
				continue
			}
			t.aest = e
		}
		for _, a := range t.succs {
			r.dirty.Add(r.pos[a.To])
		}
	}
	r.dirty.Clear()
}
