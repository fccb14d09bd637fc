package clans

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"schedcomp/internal/clan"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
)

// The references below are CLANS's two lane schedulers as they read
// before the list-scheduling kernel, kept as test oracles: each scans
// every (ready task, lane) pair at every step, with its own ready list,
// arrival loop and lane free times.

// referencePrimitive is the primitive-clan handler over the reference
// lane schedulers.
func referencePrimitive(b *builder, n *clan.Node) fragment {
	if b.c.DeepPrimitives {
		if f, ok := referencePrimitiveDeep(b, n); ok {
			return f
		}
	}
	lanes, makespan := referenceETF(b, n.Members)
	var serial int64
	for _, m := range n.Members {
		serial += b.g.Weight(m)
	}
	if b.c.SpeedupCheck && makespan >= serial {
		flat := append([]dag.NodeID(nil), n.Members...)
		sort.Slice(flat, func(i, j int) bool { return b.topoPos[flat[i]] < b.topoPos[flat[j]] })
		return fragment{lanes: [][]dag.NodeID{flat}, cost: serial}
	}
	return fragment{lanes: lanes, cost: makespan}
}

// referenceETF runs an earliest-task-first list schedule of the
// subgraph induced by members (external edges ignored). It returns the
// lanes and the internal makespan estimate.
func referenceETF(b *builder, members []dag.NodeID) ([][]dag.NodeID, int64) {
	member := func(v dag.NodeID) bool { return b.index[v] != 0 }
	for _, m := range members {
		b.index[m] = 1
	}
	defer func() {
		for _, m := range members {
			b.index[m] = 0
		}
	}()

	remainingPreds := map[dag.NodeID]int{}
	for _, m := range members {
		cnt := 0
		for _, a := range b.g.Preds(m) {
			if member(a.To) {
				cnt++
			}
		}
		remainingPreds[m] = cnt
	}
	ready := make([]dag.NodeID, 0, len(members))
	for _, m := range members {
		if remainingPreds[m] == 0 {
			ready = append(ready, m)
		}
	}

	proc := map[dag.NodeID]int{}
	finish := map[dag.NodeID]int64{}
	var laneFree []int64
	var lanes [][]dag.NodeID
	var makespan int64

	for len(ready) > 0 {
		if err := b.ctx.Err(); err != nil {
			b.err = err
			return [][]dag.NodeID{nil}, 0
		}
		// Earliest start over (ready task, lane) pairs, one fresh lane
		// allowed; ties to the heavier task, then the smaller ID, then
		// the lower lane.
		bestT, bestL := -1, -1
		var bestStart int64
		for ti, t := range ready {
			for l := 0; l <= len(lanes); l++ {
				var start int64
				if l < len(laneFree) {
					start = laneFree[l]
				}
				for _, a := range b.g.Preds(t) {
					if !member(a.To) {
						continue
					}
					at := finish[a.To]
					if proc[a.To] != l {
						at += a.Weight
					}
					if at > start {
						start = at
					}
				}
				better := bestT == -1 || start < bestStart
				if !better && start == bestStart && ti != bestT {
					prev := ready[bestT]
					if b.g.Weight(t) != b.g.Weight(prev) {
						better = b.g.Weight(t) > b.g.Weight(prev)
					} else {
						better = t < prev
					}
				}
				if better {
					bestT, bestL, bestStart = ti, l, start
				}
			}
		}
		t := ready[bestT]
		ready = append(ready[:bestT], ready[bestT+1:]...)
		if bestL == len(lanes) {
			lanes = append(lanes, nil)
			laneFree = append(laneFree, 0)
		}
		proc[t] = bestL
		f := bestStart + b.g.Weight(t)
		finish[t] = f
		laneFree[bestL] = f
		lanes[bestL] = append(lanes[bestL], t)
		if f > makespan {
			makespan = f
		}
		for _, a := range b.g.Succs(t) {
			if !member(a.To) {
				continue
			}
			remainingPreds[a.To]--
			if remainingPreds[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	if len(lanes) == 0 {
		lanes = [][]dag.NodeID{nil}
	}
	return lanes, makespan
}

// referencePrimitiveDeep is primitiveDeep over the reference quotient
// scheduler.
func referencePrimitiveDeep(b *builder, n *clan.Node) (fragment, bool) {
	blocks, err := clan.SubClans(b.g, n.Members)
	if err != nil || len(blocks) <= 1 || len(blocks) == len(n.Members) {
		return fragment{}, false
	}

	frags := make([]fragment, len(blocks))
	composite := false
	for i, blk := range blocks {
		if len(blk) == 1 {
			frags[i] = fragment{lanes: [][]dag.NodeID{{blk[0]}}, cost: b.g.Weight(blk[0])}
			continue
		}
		sub, err := clan.ParseMembers(b.g, blk)
		if err != nil {
			return fragment{}, false
		}
		frags[i] = b.schedule(sub)
		if b.err != nil {
			return fragment{}, true
		}
		composite = true
	}
	if !composite {
		return fragment{}, false
	}

	laneBlocks, makespan := referenceQuotient(b.g, blocks, frags)

	var serial int64
	for _, m := range n.Members {
		serial += b.g.Weight(m)
	}
	if b.c.SpeedupCheck && makespan >= serial {
		flat := append([]dag.NodeID(nil), n.Members...)
		sort.Slice(flat, func(i, j int) bool { return b.topoPos[flat[i]] < b.topoPos[flat[j]] })
		return fragment{lanes: [][]dag.NodeID{flat}, cost: serial}, true
	}

	lanes := make([][]dag.NodeID, 0, len(laneBlocks))
	extra := make([][]dag.NodeID, 0, len(blocks))
	for _, lb := range laneBlocks {
		size := 0
		for _, blk := range lb {
			size += len(frags[blk].lanes[0])
		}
		lane := make([]dag.NodeID, 0, size)
		for _, blk := range lb {
			lane = append(lane, frags[blk].lanes[0]...)
			extra = append(extra, frags[blk].lanes[1:]...)
		}
		lanes = append(lanes, lane)
	}
	return fragment{lanes: append(lanes, extra...), cost: makespan}, true
}

// referenceQuotient is primitiveDeep's quotient list scheduler: the
// blocks are macro-tasks of their fragments' costs, and the heaviest
// edge between two blocks is their communication. It returns the
// blocks on each lane and the makespan.
func referenceQuotient(g *dag.Graph, blocks [][]dag.NodeID, frags []fragment) ([][]int, int64) {
	// Quotient structure: block index per member, heaviest edge and
	// predecessor counts between blocks. A zero-weight edge never
	// writes comm, so a pair may enter succs more than once; predCount
	// counts each entry, so the two stay consistent.
	blockOf := map[dag.NodeID]int{}
	for i, blk := range blocks {
		for _, m := range blk {
			blockOf[m] = i
		}
	}
	k := len(blocks)
	comm := make(map[[2]int]int64)
	predCount := make([]int, k)
	succs := make([][]int, k)
	for _, blk := range blocks {
		for _, m := range blk {
			for _, a := range g.Succs(m) {
				j, inside := blockOf[a.To]
				if !inside {
					continue
				}
				i := blockOf[m]
				if i == j {
					continue
				}
				key := [2]int{i, j}
				if _, known := comm[key]; !known {
					predCount[j]++
					succs[i] = append(succs[i], j)
				}
				if a.Weight > comm[key] {
					comm[key] = a.Weight
				}
			}
		}
	}

	ready := make([]int, 0, k)
	for i := 0; i < k; i++ {
		if predCount[i] == 0 {
			ready = append(ready, i)
		}
	}
	laneOf := make([]int, k)
	finish := make([]int64, k)
	var laneFree []int64
	var laneBlocks [][]int
	var makespan int64
	for len(ready) > 0 {
		bestI, bestL := -1, -1
		var bestStart int64
		for ri, blk := range ready {
			for l := 0; l <= len(laneBlocks); l++ {
				var start int64
				if l < len(laneFree) {
					start = laneFree[l]
				}
				for _, pre := range referencePredsOf(blk, succs, k) {
					t := finish[pre]
					if laneOf[pre] != l {
						t += comm[[2]int{pre, blk}]
					}
					if t > start {
						start = t
					}
				}
				better := bestI == -1 || start < bestStart
				if !better && start == bestStart && ri != bestI {
					if frags[blk].cost != frags[ready[bestI]].cost {
						better = frags[blk].cost > frags[ready[bestI]].cost
					} else {
						better = blk < ready[bestI]
					}
				}
				if better {
					bestI, bestL, bestStart = ri, l, start
				}
			}
		}
		blk := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		if bestL == len(laneBlocks) {
			laneBlocks = append(laneBlocks, nil)
			laneFree = append(laneFree, 0)
		}
		laneOf[blk] = bestL
		f := bestStart + frags[blk].cost
		finish[blk] = f
		laneFree[bestL] = f
		laneBlocks[bestL] = append(laneBlocks[bestL], blk)
		if f > makespan {
			makespan = f
		}
		for _, j := range succs[blk] {
			predCount[j]--
			if predCount[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return laneBlocks, makespan
}

// referencePredsOf scans the quotient successor lists for blk's
// predecessors.
func referencePredsOf(blk int, succs [][]int, k int) []int {
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		for _, j := range succs[i] {
			if j == blk {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// fragmentString serializes a fragment so that equal strings mean the
// same lanes, in the same order, and the same cost.
func fragmentString(f fragment) string { return fmt.Sprintf("lanes=%v cost=%d", f.lanes, f.cost) }

// primitives returns g's primitive clans in parse-tree order.
func primitives(t *testing.T, g *dag.Graph) []*clan.Node {
	t.Helper()
	tree, err := clan.Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	var out []*clan.Node
	var walk func(n *clan.Node)
	walk = func(n *clan.Node) {
		if n == nil {
			return // the empty graph's tree has no root
		}
		if n.Kind == clan.Primitive {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	return out
}

// requireSameCLANS holds g's primitive clans, scheduled flat and over
// their quotient without the speedup check, and CLANS's whole
// placement with the check on and off and with DeepPrimitives, to the
// reference lane schedulers. It returns the number of primitive clans
// and of quotient schedules compared.
func requireSameCLANS(t *testing.T, g *dag.Graph, label string) (prims, quotients int) {
	t.Helper()
	for _, n := range primitives(t, g) {
		b := newBuilder(t, g)
		b.c = &CLANS{}
		lanes, makespan := referenceETF(b, n.Members)
		want := fragmentString(fragment{lanes: lanes, cost: makespan})
		if got := fragmentString(b.primitive(n)); got != want {
			t.Fatalf("%s: primitive clan %v: lanes diverge from the reference\n kernel:    %s\n reference: %s", label, n.Members, got, want)
		}
		b.c = &CLANS{DeepPrimitives: true}
		fast, ok := b.primitiveDeep(n)
		slow, refOK := referencePrimitiveDeep(b, n)
		if ok != refOK {
			t.Fatalf("%s: primitive clan %v: quotient handler ok = %v, reference %v", label, n.Members, ok, refOK)
		}
		if got, want := fragmentString(fast), fragmentString(slow); got != want {
			t.Fatalf("%s: primitive clan %v: quotient lanes diverge from the reference\n kernel:    %s\n reference: %s", label, n.Members, got, want)
		}
		prims++
		if ok {
			quotients++
		}
	}
	for _, c := range []*CLANS{New(), {}, {SpeedupCheck: true, DeepPrimitives: true}} {
		fast, err := c.Schedule(g)
		if err != nil {
			t.Fatalf("%s: CLANS %+v: %v", label, *c, err)
		}
		slow, err := c.run(context.Background(), g, referencePrimitive)
		if err != nil {
			t.Fatalf("%s: CLANS %+v reference: %v", label, *c, err)
		}
		if a, b := schedtest.PlacementString(fast), schedtest.PlacementString(slow); a != b {
			t.Fatalf("%s: CLANS %+v and its reference diverge\n kernel:    %s\n reference: %s", label, *c, a, b)
		}
	}
	return prims, quotients
}

// TestMatchesReference holds both lane schedulers over the kernel's
// Select, and the whole scheduler, to the reference, byte for byte.
func TestMatchesReference(t *testing.T) {
	prims, quotients := 0, 0
	for _, ng := range schedtest.ReferenceCorpus(t) {
		p, q := requireSameCLANS(t, ng.Graph, ng.Label)
		prims += p
		quotients += q
	}
	t.Logf("%d primitive clans, %d quotient schedules", prims, quotients)
	if quotients == 0 {
		t.Fatal("no quotient schedule: the quotient scheduler went untested")
	}
}

// FuzzCLANSReference holds CLANS to the reference on fuzz-built DAGs of
// up to 40 nodes.
func FuzzCLANSReference(f *testing.F) {
	for _, seed := range schedtest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameCLANS(t, schedtest.FuzzGraph(data), "fuzz graph")
	})
}
