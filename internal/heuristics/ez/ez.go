// Package ez implements Sarkar's Edge Zeroing clustering heuristic
// (reference [1] of the paper, the work whose granularity definition
// §3.1 extends). Edges are visited in decreasing weight order; each
// edge's endpoint clusters are tentatively merged, and the merge is
// kept only if the estimated parallel time does not increase. Clusters
// become processors.
//
// The parallel-time estimate orders each cluster by descending
// communication-weighted level (a topologically consistent order,
// since a predecessor's level strictly exceeds its successors') and
// replays the common greedy timing model.
//
// Estimator. Every cluster queue is the restriction of one global
// (level desc, id asc) order to the cluster's members, for every
// clustering the algorithm can reach. Under that queue discipline the
// greedy timing model has a closed form: finish(v) = weight(v) +
// max(finish(queue predecessor), max over preds u of finish(u) + comm),
// and because node weights are strictly positive, level(u) > level(v)
// for every edge u→v, so both kinds of dependency point backward in
// the global order and one forward sweep solves the recurrence. A
// trial merge therefore does not rescan the graph. It walks the two
// clusters' member chains in global order, merging them on the fly,
// and re-times each member against its merged queue predecessor. A
// change reaches other clusters along graph edges and queue links, and
// spreads only while finish times actually change; those nodes go
// through a min-heap keyed by global rank, so the whole cone is
// re-timed in order. Cluster membership is a flat array of committed
// roots. Trial finish times are written in place over the committed
// ones, with an undo log: a rejected trial rolls them back, a kept one
// leaves nothing to copy. The tests hold every trial estimate to a
// full rescan through sched.Build.
package ez

import (
	"cmp"
	"context"
	"slices"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("EZ", func() heuristics.Scheduler { return New() })
}

// EZ is the scheduler. The zero value is ready to use.
type EZ struct {
	// estLog, when non-nil, records the initial estimate followed by
	// the trial estimate of every examined edge, in examination order.
	// Test hook: the oracle test compares it with a full rescan's.
	estLog *[]int64
}

// New returns an EZ scheduler.
func New() *EZ { return &EZ{} }

// Name implements heuristics.Scheduler.
func (e *EZ) Name() string { return "EZ" }

// Schedule implements heuristics.Scheduler.
func (e *EZ) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return e.ScheduleContext(context.Background(), g)
}

// sortedEdges returns the graph's edges in EZ's examination order:
// decreasing weight, ties toward the smaller (From, To) pair.
func sortedEdges(g *dag.Graph) []dag.Edge {
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b dag.Edge) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
	return edges
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per examined edge.
//
//lint:boundedidx edge endpoints and the inlined rollback's undo log hold NodeIDs in [0,n)
func (e *EZ) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	scratch := arena.Get()
	defer scratch.Release()
	st := newState(g, level, scratch)
	current := st.initialTiming()
	if e.estLog != nil {
		*e.estLog = append(*e.estLog, current)
	}
	for _, edge := range sortedEdges(g) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ra, rb := int(st.root[edge.From]), int(st.root[edge.To])
		if ra == rb {
			continue // already zeroed transitively
		}
		merged := st.trial(ra, rb)
		if e.estLog != nil {
			*e.estLog = append(*e.estLog, merged)
		}
		if merged <= current {
			current = merged
			st.commit(ra, rb)
		} else {
			st.rollback()
		}
	}
	return st.placement(), nil
}

// state is the incremental estimator: the clustering with its exact
// greedy timing, which a trial merge re-times in place and a rejected
// one rolls back. All of it lives in pooled arena scratch for the
// duration of one Schedule call.
type state struct {
	g   *dag.Graph
	csr *dag.CSR
	n   int

	ord  []dag.NodeID // all nodes, (level desc, id asc)
	rank []int32      // rank[v] = position of v in ord

	root []int32 // committed cluster root of every node; rb survives a merge

	// Committed cluster chains in global order: qprev/qnext link each
	// cluster's members, head/tail index the ends per live root.
	qprev, qnext []int32
	head, tail   []int32

	roots   []int32 // live roots, unordered (swap-removed on merge)
	rootPos []int32 // position of each live root in roots

	// fin is the finish time of every node under the committed
	// clustering, or during a trial under the pending merge.
	fin []int64

	// Trial bookkeeping. The epoch stamp makes the heap's dedup O(cone)
	// with no clearing: a node is queued this trial only when its stamp
	// equals epoch. The undo log holds each rewritten node once, with
	// its committed finish time.
	epoch    int32
	inHeap   []int32
	heap     []int32 // min-heap of ranks of the non-member nodes to re-time
	undoNode []dag.NodeID
	undoFin  []int64
}

// Every index used by the state methods is a NodeID or a rank in
// [0,n) by construction — ord is a permutation of the node IDs, the
// chain links and root arrays only ever store committed NodeIDs, and
// every state slice is carved at length n — but the slices come out of
// arena scratch, so the proof is beyond the compiler.
//
//lint:boundedidx indexes are NodeIDs/ranks in [0,n), slices carved at n
func newState(g *dag.Graph, level []int64, sc *arena.Scratch) *state {
	n := g.NumNodes()
	st := &state{
		g:        g,
		csr:      g.CSR(),
		n:        n,
		ord:      sc.NodeIDs(n),
		rank:     sc.Int32s(n),
		root:     sc.Int32s(n),
		qprev:    sc.Int32s(n),
		qnext:    sc.Int32s(n),
		head:     sc.Int32s(n),
		tail:     sc.Int32s(n),
		roots:    sc.Int32s(n),
		rootPos:  sc.Int32s(n),
		fin:      sc.Int64s(n),
		inHeap:   sc.Int32s(n),
		heap:     sc.Int32s(n)[:0],
		undoNode: sc.NodeIDs(n)[:0],
		undoFin:  sc.Int64s(n)[:0],
	}
	for i := range st.ord {
		st.ord[i] = dag.NodeID(i)
	}
	slices.SortFunc(st.ord, func(a, b dag.NodeID) int {
		if level[a] != level[b] {
			return cmp.Compare(level[b], level[a])
		}
		return cmp.Compare(a, b)
	})
	for i, v := range st.ord {
		st.rank[v] = int32(i)
	}
	for v := 0; v < n; v++ {
		st.root[v] = int32(v)
		st.qprev[v] = -1
		st.qnext[v] = -1
		st.head[v] = int32(v)
		st.tail[v] = int32(v)
		st.roots[v] = int32(v)
		st.rootPos[v] = int32(v)
	}
	return st
}

// initialTiming times the all-singletons clustering (no queue
// predecessors, every edge pays its communication weight) and returns
// its makespan.
//
//lint:boundedidx indexes are NodeIDs in [0,n), slices carved at n
func (s *state) initialTiming() int64 {
	var ms int64
	for _, v := range s.ord {
		var start int64
		preds, ws := s.csr.Preds(v)
		for j, u := range preds {
			if t := s.fin[u] + ws[j]; t > start {
				start = t
			}
		}
		s.fin[v] = start + s.g.Weight(v)
		if s.fin[v] > ms {
			ms = s.fin[v]
		}
	}
	return ms
}

// push queues node v for re-timing this trial (deduplicated), unless
// it belongs to one of the merging clusters ra and rb, whose members
// trial walks in order anyway.
//
//lint:boundedidx heap indexes stay below len(h); ranks are in [0,n)
func (s *state) push(v dag.NodeID, ra, rb int32) {
	if r := s.root[v]; r == ra || r == rb || s.inHeap[v] == s.epoch {
		return
	}
	s.inHeap[v] = s.epoch
	h := append(s.heap, s.rank[v])
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

// pop removes and returns the smallest pending rank.
//
//lint:boundedidx child/parent heap indexes are guarded against len(h)
func (s *state) pop() int32 {
	h := s.heap
	r := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if rc := c + 1; rc < len(h) && h[rc] < h[c] {
				c = rc
			}
			if last <= h[c] {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	s.heap = h
	return r
}

// trial prices merging the clusters rooted at ra and rb and returns
// the resulting makespan. It walks both member chains in global order
// and re-times every member; a node of another cluster is re-timed
// only if a predecessor's finish or its queue predecessor's finish
// changed, and propagation stops wherever the recomputed finish equals
// the old one. New finish times are written to fin and logged, so
// commit or rollback must follow before the next trial.
//
//lint:boundedidx indexes are NodeIDs/ranks in [0,n), slices carved at n
func (s *state) trial(ra, rb int) int64 {
	s.epoch++
	s.heap = s.heap[:0]
	s.undoNode, s.undoFin = s.undoNode[:0], s.undoFin[:0]
	ra32, rb32 := int32(ra), int32(rb)
	a, b := s.head[ra], s.head[rb]
	last := int32(-1) // most recently re-timed member: the next member's queue predecessor
walk:
	for {
		// The next member in global order, unless a queued node of
		// another cluster comes before it.
		m := a
		if b != -1 && (m == -1 || s.rank[b] < s.rank[m]) {
			m = b
		}
		var v dag.NodeID
		var queuePred, cluster int32
		switch {
		case len(s.heap) > 0 && (m == -1 || s.heap[0] < s.rank[m]):
			v = s.ord[s.pop()]
			queuePred, cluster = s.qprev[v], s.root[v]
		case m == -1:
			break walk
		default:
			if m == a {
				a = s.qnext[a]
			} else {
				b = s.qnext[b]
			}
			v, queuePred, cluster = dag.NodeID(m), last, rb32
			last = m
		}

		var start int64
		if queuePred >= 0 {
			start = s.fin[queuePred]
		}
		preds, ws := s.csr.Preds(v)
		for j, u := range preds {
			t := s.fin[u]
			ru := s.root[u]
			if ru == ra32 {
				ru = rb32
			}
			if ru != cluster {
				t += ws[j]
			}
			start = max(start, t)
		}
		f := start + s.g.Weight(v)
		if f == s.fin[v] {
			continue // unchanged: nothing downstream can move through v
		}
		s.undoNode = append(s.undoNode, v)
		s.undoFin = append(s.undoFin, s.fin[v])
		s.fin[v] = f
		succs, _ := s.csr.Succs(v)
		for _, t := range succs {
			s.push(t, ra32, rb32)
		}
		// A member's queue successor is a member, walked anyway; push
		// skips it. Another cluster's is in that cluster's chain.
		if nx := s.qnext[v]; nx >= 0 {
			s.push(dag.NodeID(nx), ra32, rb32)
		}
	}

	// Finish times grow along every queue, so the makespan is the max
	// over live cluster tails; the merged tail is the last member
	// walked.
	var ms int64
	for _, r := range s.roots {
		t := s.tail[r]
		switch r {
		case ra32:
			continue
		case rb32:
			t = last
		}
		ms = max(ms, s.fin[t])
	}
	return ms
}

// rollback restores the committed finish times the last trial
// overwrote.
//
//lint:boundedidx undoNode holds NodeIDs in [0,n) and undoFin has its length
func (s *state) rollback() {
	for i, v := range s.undoNode {
		s.fin[v] = s.undoFin[i]
	}
}

// commit keeps the last trial: its finish times already stand in fin,
// the two chains are merged in global order, and ra's cluster is
// absorbed into rb's.
//
//lint:boundedidx indexes are NodeIDs/root positions in [0,n)
func (s *state) commit(ra, rb int) {
	a, b := s.head[ra], s.head[rb]
	var h, t int32 = -1, -1
	for a != -1 || b != -1 {
		var x int32
		if b == -1 || (a != -1 && s.rank[a] < s.rank[b]) {
			x, a = a, s.qnext[a]
			s.root[x] = int32(rb)
		} else {
			x, b = b, s.qnext[b]
		}
		if t == -1 {
			h = x
		} else {
			s.qnext[t] = x
		}
		s.qprev[x] = t
		t = x
	}
	s.qnext[t] = -1
	s.head[rb], s.tail[rb] = h, t
	i := s.rootPos[ra]
	lastRoot := s.roots[len(s.roots)-1]
	s.roots[i] = lastRoot
	s.rootPos[lastRoot] = i
	s.roots = s.roots[:len(s.roots)-1]
}

// placement lays each committed cluster on its own processor, roots in
// ascending ID order, members in chain (level desc, id asc) order.
//
//lint:boundedidx chain links only hold NodeIDs in [0,n)
func (s *state) placement() *sched.Placement {
	slices.Sort(s.roots)
	pl := sched.NewPlacement(s.n)
	for pi, r := range s.roots {
		for v := s.head[r]; v != -1; v = s.qnext[v] {
			pl.Assign(dag.NodeID(v), pi)
		}
	}
	return pl
}
