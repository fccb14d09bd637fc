package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
)

// Assignment records where and when one task executes.
type Assignment struct {
	Node   dag.NodeID
	Proc   int
	Start  int64
	Finish int64
}

// Schedule is a fully timed assignment of a graph's tasks to
// processors.
type Schedule struct {
	Graph *dag.Graph
	// ByNode[n] is the assignment of node n.
	ByNode []Assignment
	// NumProcs is the number of processors used (dense 0..NumProcs-1).
	NumProcs int
	// Makespan is the parallel time: the maximum finish time.
	Makespan int64
}

// ParallelTime returns the schedule makespan, the paper's objective.
func (s *Schedule) ParallelTime() int64 { return s.Makespan }

// Speedup returns serial time / parallel time. A value below 1 means
// the schedule retards execution relative to one processor.
func (s *Schedule) Speedup() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Graph.SerialTime()) / float64(s.Makespan)
}

// Efficiency returns Speedup / NumProcs: the average fraction of time
// the used processors are busy doing useful work.
func (s *Schedule) Efficiency() float64 {
	if s.NumProcs == 0 {
		return 0
	}
	return s.Speedup() / float64(s.NumProcs)
}

// ProcTasks returns the assignments of processor p sorted by start
// time.
func (s *Schedule) ProcTasks(p int) []Assignment {
	var out []Assignment
	for _, a := range s.ByNode {
		if a.Proc == p {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Validate checks the schedule against the paper's execution model:
//
//  1. every node is assigned exactly once, with Finish = Start + weight;
//  2. tasks on the same processor do not overlap;
//  3. every task starts no earlier than each predecessor's finish, plus
//     the edge weight when the two run on different processors.
//
// Check 3 is ValidateWith under the uniform delay.
func (s *Schedule) Validate() error {
	g := s.Graph
	n := g.NumNodes()
	if len(s.ByNode) != n {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.ByNode), n)
	}
	for i, a := range s.ByNode {
		if int(a.Node) != i {
			return fmt.Errorf("sched: ByNode[%d] holds node %d", i, a.Node)
		}
		if a.Proc < 0 || a.Proc >= s.NumProcs {
			return fmt.Errorf("sched: node %d on processor %d outside [0,%d)", i, a.Proc, s.NumProcs)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: node %d starts at negative time %d", i, a.Start)
		}
		if a.Finish != a.Start+g.Weight(a.Node) {
			return fmt.Errorf("sched: node %d finish %d != start %d + weight %d",
				i, a.Finish, a.Start, g.Weight(a.Node))
		}
		if a.Finish > s.Makespan {
			return fmt.Errorf("sched: node %d finishes at %d beyond makespan %d", i, a.Finish, s.Makespan)
		}
	}
	if err := s.checkOverlap(); err != nil {
		return err
	}
	return s.ValidateWith(UniformDelay)
}

// checkOverlap reports two tasks that share a processor and overlap in
// time. Validate has confined every Proc to [0, NumProcs) before.
//
// A counting sort buckets the node indices by processor, and each
// bucket is sorted by start, so neighbours are the only pairs to
// compare. Node weights are positive, so two tasks with equal start on
// one processor always overlap, whichever the sort puts first. There
// are min(NumProcs, n) buckets, a task going to bucket Proc mod that
// count: the scratch stays O(n) however large NumProcs is, and when
// NumProcs ≤ n each bucket is one processor. A bucket is sorted by
// insertion, which runs in near linear time because a processor's tasks
// mostly start in node order (one inversion per task on the paper
// corpus); past four shifts per task it falls back to pdqsort, so the
// worst case stays O(n log n) even with every task on one processor.
//
//lint:boundedidx bucket numbers lie in [0,buckets), bucket bounds in [0,n], and idx holds node indices in [0,n)
func (s *Schedule) checkOverlap() error {
	tasks := s.ByNode
	n := len(tasks)
	buckets := min(s.NumProcs, n)
	if buckets <= 0 {
		return nil // no tasks
	}
	folded := s.NumProcs > n
	bucketOf := func(proc int) int {
		if folded {
			return proc % buckets
		}
		return proc
	}
	order := func(x, y int32) int {
		a, b := &tasks[x], &tasks[y]
		if a.Proc != b.Proc {
			return cmp.Compare(a.Proc, b.Proc)
		}
		return cmp.Compare(a.Start, b.Start)
	}
	scratch := arena.Get()
	defer scratch.Release()
	// end[b] counts bucket b's tasks, then holds its first slot, and
	// after the fill its end.
	end := scratch.Int32s(buckets)
	for _, a := range tasks {
		end[bucketOf(a.Proc)]++
	}
	var first int32
	for b, count := range end {
		end[b] = first
		first += count
	}
	idx := scratch.Int32s(n)
	for i, a := range tasks {
		b := bucketOf(a.Proc)
		idx[end[b]] = int32(i)
		end[b]++
	}
	var lo int32
	for _, hi := range end {
		bucket := idx[lo:hi]
		lo = hi
		shifts := 0
		for i := 1; i < len(bucket); i++ {
			x, j := bucket[i], i
			for ; j > 0 && order(x, bucket[j-1]) < 0; j-- {
				bucket[j] = bucket[j-1]
			}
			bucket[j] = x
			if shifts += i - j; shifts > 4*len(bucket) {
				slices.SortFunc(bucket, order)
				break
			}
		}
	}
	// A processor's tasks are now adjacent and in start order; tasks in
	// different buckets never share a processor.
	for k := 1; k < n; k++ {
		prev, cur := &tasks[idx[k-1]], &tasks[idx[k]]
		if cur.Proc == prev.Proc && cur.Start < prev.Finish {
			return fmt.Errorf("sched: processor %d overlap: node %d [%d,%d) vs node %d [%d,%d)",
				cur.Proc, prev.Node, prev.Start, prev.Finish,
				cur.Node, cur.Start, cur.Finish)
		}
	}
	return nil
}
