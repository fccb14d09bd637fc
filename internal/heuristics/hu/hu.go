// Package hu implements Lewis & El-Rewini's communication-extended
// version of Hu's classical list scheduling algorithm (Appendix A.4 of
// the paper).
//
// Each task's priority is its level (longest path to an exit node,
// including communication weights — the Lewis/El-Rewini modification).
// Tasks with no unscheduled predecessors sit in a free list ordered by
// priority; the first task goes to the first processor, and every
// subsequent task goes to the processor that is *available* earliest.
//
// Interpretation note (see DESIGN.md): HU is by far the worst performer
// in every table of the paper — the behaviour of the classical,
// communication-oblivious Hu rule, which ignores where the predecessors
// live. So the placement choice is "earliest available processor",
// while the final timing pays full communication costs. On the paper's
// unbounded machine that is always a fresh processor. The comm-aware
// EarliestStart policy is a knob for the ablation benches.
package hu

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("HU", func() heuristics.Scheduler { return New() })
}

// Policy selects how HU picks a processor for the next task.
type Policy int

const (
	// EarliestAvailable picks the processor that becomes idle first,
	// ignoring communication (the classical Hu rule; default).
	EarliestAvailable Policy = iota
	// EarliestStart picks the processor on which the task can start
	// first, accounting for communication from predecessors (the
	// comm-aware ablation; this makes HU behave like a non-event-driven
	// MH).
	EarliestStart
)

// HU is the scheduler. The zero value uses the EarliestAvailable policy
// on an unbounded machine, matching the paper's results.
type HU struct {
	Policy Policy
}

// New returns an HU scheduler in the paper's configuration.
func New() *HU { return &HU{} }

// Name implements heuristics.Scheduler.
func (h *HU) Name() string { return "HU" }

// Schedule implements heuristics.Scheduler.
func (h *HU) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return h.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (h *HU) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	free := pq.New(func(a, b dag.NodeID) bool {
		if level[a] != level[b] {
			return level[a] > level[b]
		}
		return a < b
	})
	scratch := arena.Get()
	defer scratch.Release()
	k := listsched.New(g, scratch, false)
	for _, v := range k.Sources() {
		free.Push(v)
	}
	for !free.Empty() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := free.Pop()
		var start int64
		var p int
		if h.Policy == EarliestStart {
			start, p = k.Best(v)
		} else {
			// Every opened processor runs a task of positive weight,
			// so it is busy past time 0, when the fresh one is idle.
			p = k.Open()
			start = k.Start(v, p)
		}
		k.Commit(v, p, start)
		for _, s := range k.Release(v) {
			free.Push(s)
		}
	}
	return k.Placement(), nil
}
