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
		"Ready candidates that stayed in the heap across a commit without recomputation.")
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
	return buildWith(g, pl, delay, nil)
}

// buildWith is BuildWith for placements already known to pass Check.
//
// Each processor's candidate is the start time of its queue head. A
// ready head's start depends only on its (already finished)
// predecessors and its processor's free time, so a commit can change
// only two kinds of candidate: the committing processor's (its queue
// advanced and its free time moved) and those of the processors whose
// head waited on the committed node, which the waiter lists find.
// Processors with a ready head sit in a min-heap ordered by (candidate
// start, processor index); its top is the commit, so "smallest
// candidate, ties to the lower processor" holds exactly, and a commit
// costs O((1 + wakeups) log P) plus the predecessor scans. A blocked or
// exhausted processor is not in the heap; an empty heap with tasks left
// is a deadlock.
//
// The start times themselves do not depend on the commit order: each
// is the maximum of its queue predecessor's finish and its data
// arrivals. commits, when non-nil, receives the nodes in commit order,
// so that tests can hold the heap to the tie rule.
func buildWith(g *dag.Graph, pl *Placement, delay DelayFunc, commits *[]dag.NodeID) (*Schedule, error) {
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
	ready := readyHeap{start: scratch.Int64s(numProcs)[:0], proc: scratch.Int32s(numProcs)[:0]}
	for p := 0; p < numProcs; p++ {
		if c, ok := b.candidate(p); ok {
			ready.push(c, int32(p))
		}
	}
	candMisses := uint64(numProcs)
	var candHits, wakeups uint64
	for remaining := n; remaining > 0; remaining-- {
		if len(ready.proc) == 0 {
			buildCandHits.Add(candHits)
			buildCandMisses.Add(candMisses)
			buildWakeups.Add(wakeups)
			return nil, fmt.Errorf("sched: placement order deadlocks against precedence (%d tasks left)", remaining)
		}
		candHits += uint64(len(ready.proc) - 1)
		p := int(ready.proc[0])
		v := pl.Order[p][b.head[p]]
		b.head[p]++
		start := ready.start[0]
		f := start + g.Weight(v)
		s.ByNode[v] = Assignment{Node: v, Proc: p, Start: start, Finish: f}
		s.Makespan = max(s.Makespan, f)
		if commits != nil {
			*commits = append(*commits, v)
		}
		// The heap top is p itself: re-key it or drop it, then add the
		// processors that were waiting on v and are now ready.
		candMisses++
		if c, ok := b.candidate(p); ok {
			ready.replaceTop(c)
		} else {
			ready.pop()
		}
		w := waiterHead[v]
		waiterHead[v] = -1
		for w != -1 {
			next := b.waiterNext[w] // candidate may park w on another node
			wakeups++
			candMisses++
			if c, ok := b.candidate(int(w)); ok {
				ready.push(c, w)
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

// readyHeap is a binary min-heap of the processors whose queue head is
// ready, as parallel arrays of candidate start and processor index,
// ordered by (start, processor). Both arrays are carved at the
// processor count, which bounds the heap: a processor is in it at most
// once. Only the top ever changes key or leaves, because the top is the
// committing processor, so no position index is kept.
type readyHeap struct {
	start []int64
	proc  []int32
}

func (h *readyHeap) push(start int64, p int32) {
	h.start = append(h.start, start)
	h.proc = append(h.proc, p)
	h.sift(len(h.proc) - 1)
}

// replaceTop gives the top processor a new, never smaller, candidate.
func (h *readyHeap) replaceTop(start int64) {
	h.start[0] = start
	h.sift(0)
}

// pop removes the top processor.
func (h *readyHeap) pop() {
	last := len(h.proc) - 1
	h.start[0], h.proc[0] = h.start[last], h.proc[last]
	h.start, h.proc = h.start[:last], h.proc[:last]
	h.sift(0)
}

// sift moves entry i up or down to its place.
//
//lint:boundedidx i and its parent and children are checked against len(h.proc), and start has proc's length
func (h *readyHeap) sift(i int) {
	less := func(i, j int) bool {
		return h.start[i] < h.start[j] || (h.start[i] == h.start[j] && h.proc[i] < h.proc[j])
	}
	swap := func(i, j int) {
		h.start[i], h.start[j] = h.start[j], h.start[i]
		h.proc[i], h.proc[j] = h.proc[j], h.proc[i]
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !less(i, parent) {
			break
		}
		swap(i, parent)
		i = parent
	}
	for {
		c := 2*i + 1
		if c >= len(h.proc) {
			return
		}
		if r := c + 1; r < len(h.proc) && less(r, c) {
			c = r
		}
		if !less(c, i) {
			return
		}
		swap(i, c)
		i = c
	}
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
