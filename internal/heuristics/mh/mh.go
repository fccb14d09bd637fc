// Package mh implements the Mapping Heuristic of Lewis & El-Rewini
// (Appendix A.3 of the paper), an event-driven list scheduler.
//
// Every task gets priority level(n) — the communication-weighted
// longest path to an exit node. All currently free tasks are allocated
// in priority order, each to the processor on which it could start (and
// so finish) the earliest, ties to the lower processor; completions are
// then replayed from an event list, releasing successor tasks into the
// free list.
//
// MH was designed to account for processor interconnection topology and
// link contention. The paper's experiments use an unbounded fully
// connected network, where both are inert and the listsched kernel's
// Best gives the processor. Any other network (internal/topology), or
// contention, makes arrival depend on the processor pair, so MH scans
// every candidate processor; the topology example and the ablation
// benches exercise that path.
package mh

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/listsched"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
	"schedcomp/internal/topology"
)

func init() {
	heuristics.Register("MH", func() heuristics.Scheduler { return New() })
}

// MH is the scheduler. The zero value schedules on an unbounded fully
// connected network without contention, which is the paper's setting.
type MH struct {
	// Net is the processor network; nil means unbounded fully
	// connected.
	Net *topology.Network
	// Contention, when true, serializes messages crossing the same
	// link (store-and-forward, unit-capacity links).
	Contention bool
}

// New returns an MH scheduler in the paper's configuration.
func New() *MH { return &MH{} }

// Name implements heuristics.Scheduler.
func (m *MH) Name() string { return "MH" }

type event struct {
	finish int64
	node   dag.NodeID
}

// Schedule implements heuristics.Scheduler.
func (m *MH) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return m.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per allocation or replayed completion.
func (m *MH) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	// net stays nil in the paper's configuration, where Best is exact.
	net := m.Net
	var traffic *topology.Traffic
	if m.Contention {
		if net == nil {
			net = topology.FullyConnected(0)
		}
		traffic = topology.NewTraffic(net)
	}

	// Free list: highest level first, ties to the smaller ID.
	free := pq.New(func(a, b dag.NodeID) bool {
		if level[a] != level[b] {
			return level[a] > level[b]
		}
		return a < b
	})
	events := pq.New(func(a, b event) bool {
		if a.finish != b.finish {
			return a.finish < b.finish
		}
		return a.node < b.node
	})
	scratch := arena.Get()
	defer scratch.Release()
	k := listsched.New(g, scratch, false)
	for _, v := range k.Sources() {
		free.Push(v)
	}
	for !k.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if free.Empty() {
			// The first unplaced task in topological order waits on a
			// placed predecessor's completion, so events is not empty.
			e := events.Pop()
			for _, s := range k.Release(e.node) {
				free.Push(s)
			}
			continue
		}
		v := free.Pop()
		var start int64
		var p int
		if net == nil {
			start, p = k.Best(v)
		} else {
			start, p = scan(&k, g, v, net, traffic)
		}
		k.Commit(v, p, start)
		events.Push(event{finish: k.Finish(v), node: v})
	}
	return k.Placement(), nil
}

// scan returns v's earliest start on net over every opened processor
// and, while net has room, one fresh one, and the lowest-index
// processor that achieves it. With contention (traffic not nil) it
// reserves the links the chosen processor's incoming messages cross.
func scan(k *listsched.Kernel, g *dag.Graph, v dag.NodeID, net *topology.Network, traffic *topology.Traffic) (int64, int) {
	candidates := k.Open()
	if net.NumProcs() == 0 || candidates < net.NumProcs() {
		candidates++
	}
	preds := g.Preds(v)
	bestP, bestStart := -1, int64(0)
	for p := 0; p < candidates; p++ {
		start := k.Free(p)
		for _, a := range preds {
			at := k.Finish(a.To)
			if q := k.Proc(a.To); q != p {
				if traffic != nil {
					at = traffic.Peek(q, p, at, a.Weight)
				} else {
					at += net.Delay(q, p, a.Weight)
				}
			}
			start = max(start, at)
		}
		if bestP == -1 || start < bestStart {
			bestP, bestStart = p, start
		}
	}
	if traffic != nil {
		for _, a := range preds {
			if q := k.Proc(a.To); q != bestP {
				traffic.Send(q, bestP, k.Finish(a.To), a.Weight)
			}
		}
	}
	return bestStart, bestP
}
