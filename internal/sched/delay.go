package sched

import (
	"fmt"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/obs"
)

// Timing-builder instruments. The counts are accumulated in locals
// inside buildWith and flushed once per build, so the inner loop pays
// nothing and a disabled registry costs three atomic loads per call.
var (
	buildCandHits = obs.Default().Counter("sched_build_cand_cache_hits_total",
		"Ready candidates that stayed on the ready stack across a commit without recomputation.")
	buildCandMisses = obs.Default().Counter("sched_build_cand_cache_misses_total",
		"Candidate start times computed: each processor once, then the committing processor and every woken waiter.")
	buildWakeups = obs.Default().Counter("sched_build_waiter_wakeups_total",
		"Processors re-examined because the node their head waited on finished.")
)

// DelayFunc computes the communication delay for a message of the
// given weight sent between two processors. The uniform model of the
// paper is: 0 when from == to, weight otherwise.
type DelayFunc func(from, to int, weight int64) int64

// UniformDelay is the paper's execution model.
func UniformDelay(from, to int, weight int64) int64 {
	if from == to {
		return 0
	}
	return weight
}

// BuildWith is Build under an arbitrary communication delay model —
// used to evaluate placements on non-uniform topologies (rings,
// meshes, hypercubes) in the topology example and benches.
//
// Unlike Build, BuildWith never renumbers processors: with a
// non-uniform delay the processor indices are physical machine
// locations, and compacting them would silently move tasks to
// different network positions. Empty processors therefore count
// toward NumProcs here.
func BuildWith(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	if err := pl.Check(g); err != nil {
		return nil, err
	}
	return buildWith(g, pl, delay)
}

// buildWith is BuildWith for placements already known to pass Check.
//
// Each processor's candidate is the start time of its queue head. A
// ready head's start depends only on its (already finished)
// predecessors and its processor's free time: it is the maximum of its
// queue predecessor's finish and its data arrivals. So the order in
// which ready heads are committed changes no start time, and which
// tasks are left when no head is ready is the same in every order. A
// commit can change only two kinds of candidate: the committing
// processor's (its queue advanced and its free time moved) and those
// of the processors whose head waited on the committed node, which the
// waiter lists find. Processors with a ready head sit on a stack with
// their candidate, and each commit takes the top, at O(1 + wakeups)
// plus the predecessor scans. A blocked or exhausted processor is not
// on the stack; an empty stack with tasks left is a deadlock.
func buildWith(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	if delay == nil {
		delay = UniformDelay
	}
	n := g.NumNodes()
	numProcs := len(pl.Order)
	s := &Schedule{Graph: g, ByNode: make([]Assignment, n), NumProcs: numProcs}
	if n == 0 {
		return s, nil
	}
	// Working arrays come zeroed from the pooled arena; only the
	// resulting Schedule's ByNode escapes the call.
	scratch := arena.Get()
	defer scratch.Release()
	waiterHead := scratch.Int32s(n)
	for i := range waiterHead {
		waiterHead[i] = -1
	}
	b := builder{
		csr:        g.CSR(),
		pl:         pl,
		delay:      delay,
		byNode:     s.ByNode,
		head:       scratch.Ints(numProcs),
		waiterHead: waiterHead,
		waiterNext: scratch.Int32s(numProcs),
	}
	// The ready stack, as parallel arrays of processor and candidate
	// start. A processor is on it at most once, so the processor count
	// bounds it.
	readyProc, readyStart := scratch.Int32s(numProcs)[:0], scratch.Int64s(numProcs)[:0]
	for p := 0; p < numProcs; p++ {
		if c, ok := b.candidate(p); ok {
			readyProc, readyStart = append(readyProc, int32(p)), append(readyStart, c)
		}
	}
	candMisses := uint64(numProcs)
	var candHits, wakeups uint64
	for remaining := n; remaining > 0; remaining-- {
		top := len(readyProc) - 1
		if top < 0 {
			buildCandHits.Add(candHits)
			buildCandMisses.Add(candMisses)
			buildWakeups.Add(wakeups)
			return nil, fmt.Errorf("sched: placement order deadlocks against precedence (%d tasks left)", remaining)
		}
		candHits += uint64(top)
		p, start := int(readyProc[top]), readyStart[top]
		readyProc, readyStart = readyProc[:top], readyStart[:top]
		v := pl.Order[p][b.head[p]]
		b.head[p]++
		f := start + g.Weight(v)
		s.ByNode[v] = Assignment{Node: v, Proc: p, Start: start, Finish: f}
		s.Makespan = max(s.Makespan, f)
		// Put p back if its next head is ready, then the processors
		// that were waiting on v and are now ready.
		candMisses++
		if c, ok := b.candidate(p); ok {
			readyProc, readyStart = append(readyProc, int32(p)), append(readyStart, c)
		}
		w := waiterHead[v]
		waiterHead[v] = -1
		for w != -1 {
			next := b.waiterNext[w] // candidate may park w on another node
			wakeups++
			candMisses++
			if c, ok := b.candidate(int(w)); ok {
				readyProc, readyStart = append(readyProc, w), append(readyStart, c)
			}
			w = next
		}
	}
	buildCandHits.Add(candHits)
	buildCandMisses.Add(candMisses)
	buildWakeups.Add(wakeups)
	return s, nil
}

// builder is the timing state of one buildWith call. The schedule under
// construction is part of it: a node is finished once its assignment
// has a Finish, which is positive for every committed task because node
// weights are.
type builder struct {
	csr    *dag.CSR
	pl     *Placement
	delay  DelayFunc
	byNode []Assignment
	head   []int // next queue position per processor
	// waiterHead[v] is the first processor whose queue head is blocked
	// on node v; waiterNext chains the rest (each processor waits on at
	// most one node at a time).
	waiterHead []int32
	waiterNext []int32
}

// candidate returns the earliest start of processor p's queue head:
// the latest data arrival, and no earlier than the finish of p's
// previous task. ok is false when p's queue is exhausted or its head
// has an unfinished predecessor; p is then parked on that predecessor's
// waiter list, and its completion wakes p.
func (b *builder) candidate(p int) (start int64, ok bool) {
	q, h := b.pl.Order[p], b.head[p]
	if h >= len(q) {
		return 0, false
	}
	if h > 0 {
		start = b.byNode[q[h-1]].Finish
	}
	preds, ws := b.csr.Preds(q[h])
	for j, u := range preds {
		a := &b.byNode[u]
		if a.Finish == 0 {
			b.waiterNext[p] = b.waiterHead[u]
			b.waiterHead[u] = int32(p)
			return 0, false
		}
		start = max(start, a.Finish+b.delay(a.Proc, p, ws[j]))
	}
	return start, true
}

// ValidateWith checks the schedule under an arbitrary delay model.
func (s *Schedule) ValidateWith(delay DelayFunc) error {
	if delay == nil {
		delay = UniformDelay
	}
	g := s.Graph
	// Hand-built schedules may not cover the graph; guard before
	// indexing ByNode by node ID below.
	if len(s.ByNode) != g.NumNodes() {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.ByNode), g.NumNodes())
	}
	csr := g.CSR()
	byNode := s.ByNode
	for v := range byNode {
		av := &byNode[v]
		preds, ws := csr.Preds(dag.NodeID(v))
		for j, u := range preds {
			ap := &byNode[u]
			ready := ap.Finish + delay(ap.Proc, av.Proc, ws[j])
			if av.Start < ready {
				return fmt.Errorf("sched: node %d starts at %d before data from %d ready at %d",
					v, av.Start, u, ready)
			}
		}
	}
	return nil
}
