package sched_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// byteAt reads raw cyclically so any input length drives the whole
// schedule construction.
func byteAt(raw []byte, i int) byte {
	if len(raw) == 0 {
		return 0
	}
	return raw[i%len(raw)]
}

// sortValidate is Validate as it was before the bucketed overlap check:
// the same checks, with overlaps found by sorting a copy of every
// assignment by (processor, start) and precedence read from g.Preds.
// It is the reference FuzzValidate holds Validate to.
func sortValidate(s *sched.Schedule) error {
	g := s.Graph
	n := g.NumNodes()
	if len(s.ByNode) != n {
		return fmt.Errorf("covers %d nodes, graph has %d", len(s.ByNode), n)
	}
	for i, a := range s.ByNode {
		switch {
		case int(a.Node) != i:
			return fmt.Errorf("ByNode[%d] holds node %d", i, a.Node)
		case a.Proc < 0 || a.Proc >= s.NumProcs:
			return fmt.Errorf("node %d on processor %d", i, a.Proc)
		case a.Start < 0:
			return fmt.Errorf("node %d starts at %d", i, a.Start)
		case a.Finish != a.Start+g.Weight(a.Node):
			return fmt.Errorf("node %d finish %d", i, a.Finish)
		case a.Finish > s.Makespan:
			return fmt.Errorf("node %d beyond makespan", i)
		}
	}
	byProc := slices.Clone(s.ByNode)
	slices.SortFunc(byProc, func(a, b sched.Assignment) int {
		if a.Proc != b.Proc {
			return a.Proc - b.Proc
		}
		return cmp.Compare(a.Start, b.Start)
	})
	for i := 1; i < len(byProc); i++ {
		prev, cur := byProc[i-1], byProc[i]
		if cur.Proc == prev.Proc && cur.Start < prev.Finish {
			return fmt.Errorf("processor %d overlap: nodes %d and %d", cur.Proc, prev.Node, cur.Node)
		}
	}
	for v := 0; v < n; v++ {
		av := s.ByNode[v]
		for _, e := range g.Preds(dag.NodeID(v)) {
			ap := s.ByNode[e.To]
			ready := ap.Finish
			if ap.Proc != av.Proc {
				ready += e.Weight
			}
			if av.Start < ready {
				return fmt.Errorf("node %d before data from %d", v, e.To)
			}
		}
	}
	return nil
}

// FuzzValidate builds a small DAG, times a placement the input picks,
// and then corrupts the schedule from the input: tasks shifted in time,
// moved to other (possibly negative) processors, started together with
// another task on its processor, given wrong node IDs or finish times;
// NumProcs offset by procs; the makespan cut short; ByNode truncated.
// Validate must give the same verdict, nil or an error, as the
// sort-based reference, and neither Validate nor ValidateWith may
// panic.
func FuzzValidate(f *testing.F) {
	f.Add(uint8(4), uint64(0b1011), int64(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), uint64(0), int64(0), []byte{})
	f.Add(uint8(7), ^uint64(0), int64(-3), []byte{255, 7, 128, 9, 0, 64})
	f.Add(uint8(3), uint64(1), int64(127), []byte{5})
	// NumProcs ≤ 0 with tasks placed.
	f.Add(uint8(5), uint64(0b10110), int64(-64), []byte{7, 6, 9})
	// NumProcs far above n: valid, untouched assignments.
	f.Add(uint8(3), uint64(0b011), int64(1)<<40, []byte{6, 7, 6, 7, 6, 7, 1, 1})
	// Equal starts on one processor: every task takes its
	// predecessor's processor and start.
	f.Add(uint8(4), uint64(0), int64(0), []byte{2, 0, 2, 0, 2, 1, 2, 0, 1})
	// An empty graph with negative NumProcs.
	f.Add(uint8(0), uint64(0), int64(-5), []byte{})

	f.Fuzz(func(t *testing.T, nNodes uint8, edgeBits uint64, procs int64, raw []byte) {
		n := int(nNodes % 8)
		g := dag.New("fuzz")
		for i := 0; i < n; i++ {
			g.AddNode(int64(1 + byteAt(raw, i)%16))
		}
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if edgeBits>>(uint(bit)%64)&1 == 1 {
					g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), int64(byteAt(raw, bit)%8))
				}
				bit++
			}
		}
		pl := sched.NewPlacement(n)
		for v := 0; v < n; v++ { // node IDs are a topological order here
			pl.Assign(dag.NodeID(v), int(byteAt(raw, v)%3))
		}
		s, err := sched.Build(g, pl)
		if err != nil {
			t.Fatalf("Build of a topological placement: %v", err)
		}

		for i := range s.ByNode {
			a := &s.ByNode[i]
			arg := int8(byteAt(raw, 2*i+1))
			switch byteAt(raw, 2*i) % 8 {
			case 0: // shift in time, keeping the duration
				d := int64(arg % 8)
				a.Start += d
				a.Finish += d
			case 1: // move to another processor
				a.Proc = int(arg)
			case 2: // start together with the previous task, on its processor
				if i > 0 {
					prev := s.ByNode[i-1]
					a.Finish += prev.Start - a.Start
					a.Start, a.Proc = prev.Start, prev.Proc
				}
			case 3:
				a.Node = dag.NodeID(arg)
			case 4:
				a.Finish += int64(arg)
			}
		}
		s.NumProcs += int(procs)
		s.Makespan = 0
		for _, a := range s.ByNode {
			s.Makespan = max(s.Makespan, a.Finish)
		}
		if byteAt(raw, n+1)%4 == 0 {
			s.Makespan-- // a finish now lies beyond the makespan
		}
		if n > 0 && byteAt(raw, n)%5 == 0 {
			s.ByNode = s.ByNode[:n-1] // schedule that does not cover the graph
		}

		got, want := s.Validate(), sortValidate(s)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate: %v; sort-based reference: %v", got, want)
		}
		ring := func(from, to int, w int64) int64 {
			d := from - to
			if d < 0 {
				d = -d
			}
			return w * int64(1+d)
		}
		_ = s.ValidateWith(nil)
		_ = s.ValidateWith(ring)
	})
}
