// Package listsched is the kernel every list scheduler shares: ETF,
// DLS, HU and MH, which append each task to the end of a processor;
// MCP and DCP, which insert it into an idle gap; and CLANS's lane
// schedulers. It keeps each placed task's processor and finish time,
// each processor's free time and each task's count of unplaced
// predecessors; it computes data arrival, commits a task, and returns
// the placement. An inserting kernel also keeps each processor's tasks
// in start order, to search its gaps. Select runs the whole loop of a
// scheduler that picks among all ready tasks at every step (ETF, DLS,
// CLANS's lanes) from a selection key.
//
// The machine is the paper's: unboundedly many processors, fully
// connected, a message free on its sender's processor and paying its
// edge weight anywhere else. DESIGN.md argues why Best and Select's
// cache are exact.
package listsched

import (
	"context"
	"slices"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// Cand is a ready task with its cached Best.
type Cand struct {
	Node  dag.NodeID
	Proc  int
	Start int64
}

// Kernel is one scheduling run's state. Its working arrays live in the
// arena scratch passed to New and die with it; only the placement
// escapes.
type Kernel struct {
	g        *dag.Graph
	proc     []int          // each task's processor, -1 while unplaced; the placement's Proc
	finish   []int64        // each placed task's finish time
	missing  []int32        // each task's unplaced predecessors
	free     []int64        // each processor's free time; 0 from open on
	load     []int32        // tasks on each processor
	slots    [][]dag.NodeID // inserting kernels only: each processor's tasks in start order
	seen     []int          // Best's per-processor stamp
	mark     int
	open     int          // opened processors: 0..open-1
	seq      []dag.NodeID // placed tasks in commit order
	sources  []dag.NodeID // tasks without predecessors, in ID order
	released []dag.NodeID // Release's result buffer
}

// New returns a kernel for g with every task unplaced, taking its
// working arrays from scratch. An inserting kernel starts each task in
// the first idle gap of a processor that holds it; any other appends it
// after the processor's last task.
func New(g *dag.Graph, scratch *arena.Scratch, insert bool) Kernel {
	n := g.NumNodes()
	proc, missing, sources := make([]int, n), scratch.Int32s(n), scratch.NodeIDs(n)[:0]
	missing = missing[:len(proc)]
	for v := range proc {
		proc[v] = -1
		d := g.InDegree(dag.NodeID(v))
		missing[v] = int32(d)
		if d == 0 {
			sources = append(sources, dag.NodeID(v))
		}
	}
	var slots [][]dag.NodeID
	if insert {
		slots = make([][]dag.NodeID, n)
	}
	return Kernel{
		g:        g,
		proc:     proc,
		finish:   scratch.Int64s(n),
		missing:  missing,
		free:     scratch.Int64s(n),
		load:     scratch.Int32s(n),
		slots:    slots,
		seen:     scratch.Ints(n),
		seq:      scratch.NodeIDs(n)[:0],
		sources:  sources,
		released: scratch.NodeIDs(n)[:0],
	}
}

// Sources returns the tasks without predecessors, in ID order.
func (k *Kernel) Sources() []dag.NodeID { return k.sources }

// Open returns the number of opened processors, the fresh one's index.
func (k *Kernel) Open() int { return k.open }

// Free returns processor p's free time, 0 for an unopened one.
func (k *Kernel) Free(p int) int64 { return k.free[p] }

// Proc returns placed task v's processor.
func (k *Kernel) Proc(v dag.NodeID) int { return k.proc[v] }

// Finish returns placed task v's finish time.
func (k *Kernel) Finish(v dag.NodeID) int64 { return k.finish[v] }

// Done reports whether every task is placed.
func (k *Kernel) Done() bool { return len(k.seq) == len(k.proc) }

// Start returns v's earliest start on processor p: the first time at or
// after the arrival of v's last message at which v fits there. Every
// predecessor of v must be placed.
func (k *Kernel) Start(v dag.NodeID, p int) int64 {
	var r int64
	for _, e := range k.g.Preds(v) {
		t := k.finish[e.To]
		if k.proc[e.To] != p {
			t += e.Weight
		}
		r = max(r, t)
	}
	return k.fit(p, r, k.g.Weight(v))
}

// fit returns the earliest start at or after r of a task of weight w on
// processor p: r or p's free time, whichever is later, for an appending
// kernel; the start of the first idle gap at or after r that holds w
// for an inserting one.
func (k *Kernel) fit(p int, r, w int64) int64 {
	if k.slots == nil {
		return max(k.free[p], r)
	}
	for _, u := range k.slots[p][k.after(p, r):] {
		if r+w <= k.finish[u]-k.g.Weight(u) {
			break
		}
		r = k.finish[u]
	}
	return r
}

// fits reports whether a task of weight w can start on processor p at
// time a.
func (k *Kernel) fits(p int, a, w int64) bool {
	if k.slots == nil {
		return k.free[p] <= a
	}
	tl := k.slots[p]
	i := k.after(p, a)
	return i == len(tl) || a+w <= k.finish[tl[i]]-k.g.Weight(tl[i])
}

// after returns the index of processor p's first task that finishes
// after t. Tasks on one processor do not overlap and weigh at least 1,
// so their finishes ascend in start order.
func (k *Kernel) after(p int, t int64) int {
	tl := k.slots[p]
	lo, hi := 0, len(tl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k.finish[tl[m]] <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Best returns v's earliest start over the opened processors and the
// fresh one, and the lowest-index processor that achieves it. Every
// predecessor of v must be placed. Only the processors hosting a
// predecessor need their own arrival, and each is evaluated once: on
// any other one every message pays its weight, so v's messages arrive
// there at one time a, and v starts there at a exactly when it fits at
// a. The cost is O(in-degree × distinct predecessor processors + open
// processors); an inserting kernel adds a binary search per processor
// and, on a predecessor's processor, a scan of the gaps after v's
// arrival.
func (k *Kernel) Best(v dag.NodeID) (int64, int) {
	preds := k.g.Preds(v)
	// a is the arrival on a processor hosting no predecessor.
	var a int64
	for _, e := range preds {
		a = max(a, k.finish[e.To]+e.Weight)
	}
	k.mark++
	best, bestP := int64(0), -1
	for _, e := range preds {
		p := k.proc[e.To]
		if k.seen[p] == k.mark {
			continue
		}
		k.seen[p] = k.mark
		if s := k.Start(v, p); bestP < 0 || s < best || s == best && p < bestP {
			best, bestP = s, p
		}
	}
	if bestP >= 0 && best < a {
		return best, bestP
	}
	// Every other processor starts v at a or later: the first one where
	// v fits at a, else the fresh one, starts it at a.
	w := k.g.Weight(v)
	q := k.open
	for p := range q {
		if k.seen[p] != k.mark && k.fits(p, a, w) {
			q = p
			break
		}
	}
	if bestP >= 0 && best == a && bestP < q {
		return best, bestP
	}
	return a, q
}

// Commit places v on processor p, starting at start, where v must fit;
// p may be the fresh processor, which it opens.
func (k *Kernel) Commit(v dag.NodeID, p int, start int64) {
	f := start + k.g.Weight(v)
	if k.slots != nil {
		k.slots[p] = slices.Insert(k.slots[p], k.after(p, start), v)
	}
	k.proc[v] = p
	k.finish[v] = f
	k.free[p] = max(k.free[p], f)
	k.load[p]++
	k.open = max(k.open, p+1)
	k.seq = append(k.seq, v)
}

// Release counts placed task v out of its successors' unplaced
// predecessors and returns those that reach zero, in successor order.
// The slice is reused by the next call.
func (k *Kernel) Release(v dag.NodeID) []dag.NodeID {
	out := k.released[:0]
	for _, e := range k.g.Succs(v) {
		m := &k.missing[e.To]
		if *m--; *m == 0 {
			out = append(out, e.To)
		}
	}
	k.released = out
	return out
}

// Select places every task of g, one per step: of all ready tasks, the
// one that before ranks first, at its Best. before must be a strict
// total order on ready tasks, so the ready list's order does not
// matter. Select polls ctx once per step and returns the placement and
// its makespan.
//
// Each ready task caches its Best. A commit on q raises only q's free
// time, and may open q, so only the tasks whose cached processor is q
// change. If the commit opened q, such a task keeps its start, and its
// processor stays q or moves to the new fresh one; otherwise it is
// recomputed.
func Select(ctx context.Context, g *dag.Graph, before func(a, b Cand) bool) (*sched.Placement, int64, error) {
	scratch := arena.Get()
	defer scratch.Release()
	k := New(g, scratch, false)
	ready := make([]Cand, 0, g.NumNodes())
	for _, v := range k.Sources() {
		ready = append(ready, Cand{Node: v}) // nothing is open: start 0 on processor 0
	}
	var makespan int64
	for len(ready) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		bi := 0
		for i := range ready {
			if before(ready[i], ready[bi]) {
				bi = i
			}
		}
		c := ready[bi]
		last := len(ready) - 1
		ready[bi] = ready[last]
		ready = ready[:last]
		opened := c.Proc == k.open
		k.Commit(c.Node, c.Proc, c.Start)
		makespan = max(makespan, k.finish[c.Node])
		for i := range ready {
			switch r := &ready[i]; {
			case r.Proc != c.Proc:
			case opened:
				// r was cached on the fresh processor, so every other
				// opened one starts it after its arrival r.Start. q
				// hosts none of r's predecessors: q starts it at
				// r.Start if free by then, else the new fresh one does.
				if k.free[c.Proc] > r.Start {
					r.Proc++
				}
			default:
				r.Start, r.Proc = k.Best(r.Node)
			}
		}
		for _, s := range k.Release(c.Node) {
			start, p := k.Best(s)
			ready = append(ready, Cand{Node: s, Proc: p, Start: start})
		}
	}
	return k.Placement(), makespan, nil
}

// Placement returns the placed tasks' placement, each processor's
// order in start order. An appending kernel's orders, which are in
// commit order, are windows of one backing array, each capped at its
// own length so that an append reallocates.
func (k *Kernel) Placement() *sched.Placement {
	if k.slots != nil {
		return &sched.Placement{Proc: k.proc, Order: k.slots[:k.open:k.open]}
	}
	ids := make([]dag.NodeID, len(k.seq))
	order := make([][]dag.NodeID, k.open)
	off := 0
	for p, c := range k.load[:len(order)] {
		end := off + int(c)
		order[p] = ids[off:off:end]
		off = end
	}
	for _, v := range k.seq {
		p := k.proc[v]
		order[p] = append(order[p], v)
	}
	return &sched.Placement{Proc: k.proc, Order: order}
}
