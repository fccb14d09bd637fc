// Package dsc implements Dominant Sequence Clustering (Yang &
// Gerasoulis), following the pseudocode in Appendix A.1 of the paper.
//
// DSC is an edge-zeroing clustering algorithm: it repeatedly examines
// the highest-priority free task (priority = startbound + level, where
// level includes both node and communication weights) and either merges
// it into the parent cluster that minimizes its start time (zeroing the
// connecting edges) or starts a new cluster. Two acceptance tests guard
// the zeroing:
//
//	CT1: merging into a parent cluster must not delay the task beyond
//	     the start time it would get on a fresh cluster (its
//	     startbound). Note the comparison in the paper's Figure 7 is
//	     written inverted relative to its own stated guarantee
//	     ("parallel time is not increased"); we implement the
//	     guarantee.
//	CT2: when a partially free task (some predecessors scheduled, some
//	     not) outranks the free task, the merge must additionally not
//	     delay that task's eventual start through the cluster it would
//	     use (the paper's "dominant sequence reduction warranty").
//
// Each resulting cluster becomes one processor.
package dsc

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DSC", func() heuristics.Scheduler { return New() })
}

// DSC is the scheduler. The zero value is ready to use.
//
// DSC only ever places free tasks, so every successor of an unplaced
// task is unplaced and no edge out of an unplaced task is ever zeroed.
// The level of every task a priority reads is therefore its b-level
// for the whole run, and only the startbound moves: it is the maximum
// arrival over the placed predecessors, raised as each one is placed.
// A free task's priority is thus fixed, and a partially free task's
// only rises. Free tasks wait in one max-heap; partially free tasks
// wait in another, whose stale entries are dropped when they surface.
// A step costs a few heap operations plus work over the placed task's
// edges, where a rescan of every node and level would cost O(V+E).
type DSC struct{}

// New returns a DSC scheduler.
func New() *DSC { return &DSC{} }

// Name implements heuristics.Scheduler.
func (d *DSC) Name() string { return "DSC" }

type state struct {
	g       *dag.Graph
	csr     *dag.CSR       // flat adjacency view of g, same revision
	level   []int64        // b-levels: the level of every unplaced task
	cluster []int          // node -> cluster, -1 unplaced
	members [][]dag.NodeID // cluster -> ordered tasks
	free    []int64        // cluster -> time it becomes free
	st      []int64        // node -> scheduled start time
	nsched  []int          // node -> count of placed predecessors
	sb      []int64        // node -> startbound over its placed predecessors

	// Epoch-stamped cluster marks: bestParentCluster and ct2
	// deduplicate parent clusters against mark (slot live when equal to
	// markEp), replacing a per-call map without changing which cluster
	// wins — the map only answered membership, never ordered anything.
	mark   []int32
	markEp int32

	freeQ taskHeap // free tasks, each once, at its final priority
	partQ taskHeap // partially free tasks, plus stale entries
}

// Schedule implements heuristics.Scheduler.
func (d *DSC) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per placed task.
func (d *DSC) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	// Per-call working arrays come from the pooled arena; only the
	// Placement escapes.
	scratch := arena.Get()
	defer scratch.Release()
	s, err := newState(g, scratch)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	for scheduled := 0; scheduled < n; scheduled++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.step()
	}
	pl := sched.NewPlacement(n)
	for c, ms := range s.members {
		for _, v := range ms {
			pl.Assign(v, c)
		}
	}
	return pl, nil
}

// newState returns the state before the first step, its working
// arrays carved from scratch. A task enters the free heap once, and
// the partially free heap at most once per incoming edge.
func newState(g *dag.Graph, scratch *arena.Scratch) (*state, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	csr := g.CSR()
	s := &state{
		g:       g,
		csr:     csr,
		level:   level,
		cluster: scratch.Ints(n),
		st:      scratch.Int64s(n),
		nsched:  scratch.Ints(n),
		sb:      scratch.Int64s(n),
		mark:    scratch.Int32s(n),
		freeQ:   newTaskHeap(scratch, n),
		partQ:   newTaskHeap(scratch, csr.NumEdges()),
	}
	for v := range s.cluster {
		s.cluster[v] = -1
		if csr.InDegree(dag.NodeID(v)) == 0 {
			s.freeQ.push(level[v], dag.NodeID(v))
		}
	}
	return s, nil
}

// step places the highest-priority free task: into its best parent
// cluster when the acceptance tests allow, on a new cluster otherwise.
func (s *state) step() {
	nx := s.freeQ.pop()
	ny := s.topPartialFree()

	target := -1 // cluster to merge nx into; -1 = new cluster
	if ny < 0 || s.priority(nx) > s.priority(ny) {
		if c, ok := s.bestParentCluster(nx); ok && s.startOn(c, nx) <= s.sb[nx] {
			target = c // CT1 holds
		}
	} else {
		// The partially free task outranks nx: zero only when both
		// CT1 and CT2 hold.
		if c, ok := s.bestParentCluster(nx); ok &&
			s.startOn(c, nx) <= s.sb[nx] && s.ct2(c, nx, ny) {
			target = c
		}
	}
	s.place(nx, target)
}

// priority(v) = startbound(v) + level(v), for an unplaced task v.
func (s *state) priority(v dag.NodeID) int64 { return s.sb[v] + s.level[v] }

// topPartialFree returns the partially free task with the highest
// priority (ties to the lower ID), or -1 if none exists. An entry is
// stale once its task has become free or its priority has risen past
// the stored one. Every partially free task has one entry at its
// current priority, so dropping stale entries from the top loses
// nothing.
func (s *state) topPartialFree() dag.NodeID {
	for len(s.partQ.task) > 0 {
		v := s.partQ.task[0]
		if s.nsched[v] < s.csr.InDegree(v) && s.partQ.prio[0] == s.priority(v) {
			return v
		}
		s.partQ.pop()
	}
	return -1
}

// startOn returns ST(c, v): the start time v would get appended to
// cluster c, with edges from predecessors inside c zeroed.
func (s *state) startOn(c int, v dag.NodeID) int64 {
	t := s.free[c]
	preds, ws := s.csr.Preds(v)
	for j, p := range preds {
		if s.cluster[p] == -1 {
			continue
		}
		arrive := s.st[p] + s.g.Weight(p)
		if s.cluster[p] != c {
			arrive += ws[j]
		}
		if arrive > t {
			t = arrive
		}
	}
	return t
}

// bestParentCluster returns the parent cluster minimizing ST(c, v), or
// ok == false when v has no scheduled predecessors.
func (s *state) bestParentCluster(v dag.NodeID) (int, bool) {
	best, ok := -1, false
	var bt int64
	s.markEp++
	preds, _ := s.csr.Preds(v)
	for _, p := range preds {
		c := s.cluster[p]
		if c == -1 || s.mark[c] == s.markEp {
			continue
		}
		s.mark[c] = s.markEp
		t := s.startOn(c, v)
		if !ok || t < bt || (t == bt && c < best) {
			best, bt, ok = c, t, true
		}
	}
	return best, ok
}

// ct2 checks the paper's warranty for the top partially free node ny:
// for every scheduled parent cluster of ny, the start time ny would get
// there must not exceed ny's startbound — evaluated as if nx had
// already been appended to cluster c.
func (s *state) ct2(c int, nx, ny dag.NodeID) bool {
	bound := s.sb[ny]
	newFreeC := s.startOn(c, nx) + s.g.Weight(nx)
	s.markEp++
	preds, _ := s.csr.Preds(ny)
	for _, p := range preds {
		ci := s.cluster[p]
		if ci == -1 || s.mark[ci] == s.markEp {
			continue
		}
		s.mark[ci] = s.markEp
		st := s.startOn(ci, ny)
		if ci == c && newFreeC > st {
			st = newFreeC
		}
		if st > bound {
			return false
		}
	}
	return true
}

// place commits v to cluster c (or a new cluster when c < 0), then
// raises each successor's startbound by the arrival from v and queues
// the successor as free or partially free.
func (s *state) place(v dag.NodeID, c int) {
	if c < 0 {
		c = len(s.members)
		s.members = append(s.members, nil)
		s.free = append(s.free, 0)
	}
	start := s.startOn(c, v)
	finish := start + s.g.Weight(v)
	s.cluster[v] = c
	s.st[v] = start
	s.free[c] = finish
	s.members[c] = append(s.members[c], v)
	succs, ws := s.csr.Succs(v)
	for j, to := range succs {
		s.nsched[to]++
		raised := finish+ws[j] > s.sb[to]
		if raised {
			s.sb[to] = finish + ws[j]
		}
		switch k := s.nsched[to]; {
		case k == s.csr.InDegree(to):
			s.freeQ.push(s.priority(to), to)
		case k == 1 || raised:
			s.partQ.push(s.priority(to), to)
		}
	}
}

// taskHeap is a binary max-heap of tasks on (priority desc, ID asc),
// as parallel arrays carved from the arena at a capacity the caller
// bounds.
type taskHeap struct {
	prio []int64
	task []dag.NodeID
}

func newTaskHeap(scratch *arena.Scratch, capacity int) taskHeap {
	return taskHeap{prio: scratch.Int64s(capacity)[:0], task: scratch.NodeIDs(capacity)[:0]}
}

// above reports whether entry i ranks above entry j.
func (h *taskHeap) above(i, j int) bool {
	return h.prio[i] > h.prio[j] || (h.prio[i] == h.prio[j] && h.task[i] < h.task[j])
}

func (h *taskHeap) swap(i, j int) {
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.task[i], h.task[j] = h.task[j], h.task[i]
}

func (h *taskHeap) push(prio int64, v dag.NodeID) {
	h.prio = append(h.prio, prio)
	h.task = append(h.task, v)
	for i := len(h.task) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.above(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// pop removes and returns the top task.
func (h *taskHeap) pop() dag.NodeID {
	top := h.task[0]
	last := len(h.task) - 1
	h.prio[0], h.task[0] = h.prio[last], h.task[last]
	h.prio, h.task = h.prio[:last], h.task[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.above(r, c) {
			c = r
		}
		if !h.above(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return top
}
