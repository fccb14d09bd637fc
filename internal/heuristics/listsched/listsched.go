// Package listsched is the kernel the append-only list schedulers ETF,
// DLS, HU and MH share. It keeps each placed task's processor and
// finish time, each processor's free time and each task's count of
// unplaced predecessors; it computes data arrival, commits a task to
// the end of a processor, and returns the placement carved from one
// backing array. Select runs the whole loop of a scheduler that picks
// among all ready tasks at every step (ETF, DLS) from a selection key.
//
// The machine is the paper's: unboundedly many processors, fully
// connected, a message free on its sender's processor and paying its
// edge weight anywhere else. Schedulers that insert into idle gaps
// (MCP, DCP) need per-processor timelines and do not use the kernel.
// DESIGN.md argues why Best and Select's cache are exact.
package listsched

import (
	"context"

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
	proc     []int   // each task's processor, -1 while unplaced; the placement's Proc
	finish   []int64 // each placed task's finish time
	missing  []int32 // each task's unplaced predecessors
	free     []int64 // each processor's free time; 0 from open on
	load     []int32 // tasks on each processor
	seen     []int   // Best's per-processor stamp
	mark     int
	open     int          // opened processors: 0..open-1
	seq      []dag.NodeID // placed tasks in commit order
	sources  []dag.NodeID // tasks without predecessors, in ID order
	released []dag.NodeID // Release's result buffer
}

// New returns a kernel for g with every task unplaced, taking its
// working arrays from scratch.
func New(g *dag.Graph, scratch *arena.Scratch) Kernel {
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
	return Kernel{
		g:        g,
		proc:     proc,
		finish:   scratch.Int64s(n),
		missing:  missing,
		free:     scratch.Int64s(n),
		load:     scratch.Int32s(n),
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

// Start returns v's earliest start at the end of processor p: p's free
// time or the arrival of v's last message, whichever is later. Every
// predecessor of v must be placed.
func (k *Kernel) Start(v dag.NodeID, p int) int64 {
	s := k.free[p]
	for _, e := range k.g.Preds(v) {
		t := k.finish[e.To]
		if k.proc[e.To] != p {
			t += e.Weight
		}
		s = max(s, t)
	}
	return s
}

// Best returns v's earliest start over the opened processors and the
// fresh one, and the lowest-index processor that achieves it. Every
// predecessor of v must be placed. Only the processors hosting a
// predecessor need their own arrival, and each is evaluated once: on
// any other one every message pays its weight, so v starts there at
// max(free, a) for one arrival a. The cost is O(in-degree × distinct
// predecessor processors + open processors).
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
	// Every other processor starts v at max(free, a): the first one free
	// by a, else the fresh one.
	q := k.open
	for p, f := range k.free[:q] {
		if f <= a && k.seen[p] != k.mark {
			q = p
			break
		}
	}
	if bestP >= 0 && best == a && bestP < q {
		return best, bestP
	}
	return a, q
}

// Commit places v at the end of processor p, starting at start; p may
// be the fresh processor, which it opens.
func (k *Kernel) Commit(v dag.NodeID, p int, start int64) {
	f := start + k.g.Weight(v)
	k.proc[v] = p
	k.finish[v] = f
	k.free[p] = f
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
// matter. Select polls ctx once per step.
//
// Each ready task caches its Best. A commit on q raises only q's free
// time, and may open q, so only the tasks whose cached processor is q
// are recomputed.
func Select(ctx context.Context, g *dag.Graph, before func(a, b Cand) bool) (*sched.Placement, error) {
	scratch := arena.Get()
	defer scratch.Release()
	k := New(g, scratch)
	ready := make([]Cand, 0, g.NumNodes())
	for _, v := range k.Sources() {
		ready = append(ready, Cand{Node: v}) // nothing is open: start 0 on processor 0
	}
	for len(ready) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
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
		k.Commit(c.Node, c.Proc, c.Start)
		for i := range ready {
			if r := &ready[i]; r.Proc == c.Proc {
				r.Start, r.Proc = k.Best(r.Node)
			}
		}
		for _, s := range k.Release(c.Node) {
			start, p := k.Best(s)
			ready = append(ready, Cand{Node: s, Proc: p, Start: start})
		}
	}
	return k.Placement(), nil
}

// Placement returns the placed tasks' placement, each processor's
// order in commit order. The orders are windows of one backing array,
// each capped at its own length so that an append reallocates.
func (k *Kernel) Placement() *sched.Placement {
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
