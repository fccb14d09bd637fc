// Package dls implements Dynamic Level Scheduling (Sih & Lee), another
// classic candidate for the paper's open testbed. At every step it
// examines all (ready task, processor) pairs and commits the pair with
// the greatest dynamic level
//
//	DL(n, p) = SL(n) − start(n, p)
//
// where SL is the static level (communication-weighted longest path to
// an exit) and start(n, p) the earliest start of n on p given current
// commitments; ties go to the lower ID, then the lower processor.
// Maximizing DL balances "urgent task" against "early slot": a
// high-level task may wait for a good processor while a low-level one
// takes an immediate slot elsewhere.
//
// The machine is unbounded. A task's greatest DL is at its earliest
// start, which comes cached from the listsched kernel, so DLS is its
// selection key over the kernel's Select.
package dls

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DLS", func() heuristics.Scheduler { return New() })
}

// DLS is the scheduler. The zero value is ready to use.
type DLS struct{}

// New returns a DLS scheduler.
func New() *DLS { return &DLS{} }

// Name implements heuristics.Scheduler.
func (d *DLS) Name() string { return "DLS" }

// Schedule implements heuristics.Scheduler.
func (d *DLS) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (d *DLS) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	// Greatest dynamic level, then lower ID.
	pl, _, err := listsched.Select(ctx, g, func(a, b listsched.Cand) bool {
		if da, db := level[a.Node]-a.Start, level[b.Node]-b.Start; da != db {
			return da > db
		}
		return a.Node < b.Node
	})
	return pl, err
}
