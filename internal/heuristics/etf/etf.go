// Package etf implements the Earliest Task First list scheduler
// (Hwang, Chow, Anger & Lee). Where MH allocates the highest-level
// ready task first and then picks its best processor, ETF examines
// every (ready task, processor) pair and commits the globally earliest
// start, breaking ties toward the higher level, then the lower ID, then
// the lower processor. The paper invites "heuristics developed by all
// other research teams that use execution and architectural models
// similar to [those] described here" into the testbed; ETF is the most
// cited such candidate.
//
// The machine is unbounded. Each ready task's earliest (start,
// processor) comes cached from the listsched kernel, which re-costs
// only the tasks whose cached processor a commit lands on, so ETF is
// its selection key over the kernel's Select.
package etf

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("ETF", func() heuristics.Scheduler { return New() })
}

// ETF is the scheduler. The zero value is ready to use.
type ETF struct{}

// New returns an ETF scheduler.
func New() *ETF { return &ETF{} }

// Name implements heuristics.Scheduler.
func (e *ETF) Name() string { return "ETF" }

// Schedule implements heuristics.Scheduler.
func (e *ETF) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return e.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (e *ETF) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	// Earliest start, then higher level, then lower ID.
	pl, _, err := listsched.Select(ctx, g, func(a, b listsched.Cand) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if level[a.Node] != level[b.Node] {
			return level[a.Node] > level[b.Node]
		}
		return a.Node < b.Node
	})
	return pl, err
}
