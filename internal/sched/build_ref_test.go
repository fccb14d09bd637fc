package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schedcomp/internal/dag"
)

// scanBuild is the timing builder before the ready stack, kept as the
// reference: every commit refreshes the dirty candidates in processor
// order, then scans all processors for the smallest candidate (ties to
// the lower processor).
func scanBuild(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	const blocked = int64(^uint64(0) >> 1)
	n := g.NumNodes()
	numProcs := len(pl.Order)
	s := &Schedule{Graph: g, ByNode: make([]Assignment, n), NumProcs: numProcs}
	if n == 0 {
		return s, nil
	}
	csr := g.CSR()
	done := make([]bool, n)
	finish := make([]int64, n)
	waiterHead := make([]int32, n)
	head := make([]int, numProcs)
	free := make([]int64, numProcs)
	cand := make([]int64, numProcs)
	candDirty := make([]bool, numProcs)
	waiterNext := make([]int32, numProcs)
	for i := range waiterHead {
		waiterHead[i] = -1
	}
	for p := range candDirty {
		candDirty[p] = true
	}
	for remaining := n; remaining > 0; remaining-- {
		for p := 0; p < numProcs; p++ {
			if !candDirty[p] {
				continue
			}
			candDirty[p] = false
			if head[p] >= len(pl.Order[p]) {
				cand[p] = blocked
				continue
			}
			v := pl.Order[p][head[p]]
			var start int64
			ready := true
			preds, ws := csr.Preds(v)
			for j, u := range preds {
				if !done[u] {
					waiterNext[p] = waiterHead[u]
					waiterHead[u] = int32(p)
					ready = false
					break
				}
				if t := finish[u] + delay(pl.Proc[u], p, ws[j]); t > start {
					start = t
				}
			}
			if !ready {
				cand[p] = blocked
				continue
			}
			cand[p] = max(start, free[p])
		}
		bestProc := -1
		var bestStart int64
		for p := 0; p < numProcs; p++ {
			if cand[p] != blocked && (bestProc == -1 || cand[p] < bestStart) {
				bestProc, bestStart = p, cand[p]
			}
		}
		if bestProc == -1 {
			return nil, fmt.Errorf("sched: placement order deadlocks against precedence (%d tasks left)", remaining)
		}
		v := pl.Order[bestProc][head[bestProc]]
		f := bestStart + g.Weight(v)
		s.ByNode[v] = Assignment{Node: v, Proc: bestProc, Start: bestStart, Finish: f}
		done[v] = true
		finish[v] = f
		free[bestProc] = f
		head[bestProc]++
		candDirty[bestProc] = true
		for w := waiterHead[v]; w != -1; w = waiterNext[w] {
			candDirty[w] = true
		}
		waiterHead[v] = -1
		s.Makespan = max(s.Makespan, f)
	}
	return s, nil
}

func clonePlacement(pl *Placement) *Placement {
	c := &Placement{Proc: slices.Clone(pl.Proc), Order: make([][]dag.NodeID, len(pl.Order))}
	for p, q := range pl.Order {
		c.Order[p] = slices.Clone(q)
	}
	return c
}

// refGraph is a random DAG on n nodes (edges low ID to high ID). With
// tied set every node weighs 10 and every edge 5, so candidate start
// times collide on many processors at once.
func refGraph(rng *rand.Rand, n int, tied bool) *dag.Graph {
	g := dag.New("ref")
	for i := 0; i < n; i++ {
		w := int64(10)
		if !tied {
			w = int64(1 + rng.Intn(60))
		}
		g.AddNode(w)
	}
	density := 0.05 + 0.4*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				w := int64(5)
				if !tied {
					w = int64(rng.Intn(40))
				}
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), w)
			}
		}
	}
	return g
}

// refPlacements returns the placement shapes the stack builder is held
// to: topological orders on 1..n processors (some of them empty), one
// processor per node as HU places, and arbitrary orders that may
// deadlock against precedence.
func refPlacements(rng *rand.Rand, g *dag.Graph) []namedPlacement {
	n := g.NumNodes()
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	spread := NewPlacement(n)
	perNode := NewPlacement(n)
	shuffled := NewPlacement(n)
	procs := 1 + rng.Intn(n)
	for i, v := range topo {
		spread.Assign(v, rng.Intn(procs))
		perNode.Assign(v, i)
	}
	for _, i := range rng.Perm(n) {
		shuffled.Assign(dag.NodeID(i), rng.Intn(procs))
	}
	// Assign grows Order only up to the highest processor used; pad to
	// the drawn count so trailing processors can be empty too.
	for len(spread.Order) < procs {
		spread.Order = append(spread.Order, nil)
	}
	return []namedPlacement{{"topological", spread}, {"per-node", perNode}, {"arbitrary", shuffled}}
}

type namedPlacement struct {
	name string
	pl   *Placement
}

func sameSchedule(a, b *Schedule) bool {
	return a.NumProcs == b.NumProcs && a.Makespan == b.Makespan && slices.Equal(a.ByNode, b.ByNode)
}

// TestBuildMatchesScanReference holds the stack builder to the
// scanning one on random DAGs and placements: identical schedules and
// errors, though the two commit in different orders. Uniform weights
// make ties common; the ring delay makes processor indices matter.
func TestBuildMatchesScanReference(t *testing.T) {
	ring := func(from, to int, w int64) int64 {
		d := from - to
		if d < 0 {
			d = -d
		}
		return w * int64(d)
	}
	delays := []struct {
		name  string
		delay DelayFunc
	}{{"uniform", UniformDelay}, {"ring", ring}}
	rng := rand.New(rand.NewSource(24))
	var deadlocks int
	for trial := 0; trial < 300; trial++ {
		tied := trial%2 == 0
		g := refGraph(rng, 1+rng.Intn(40), tied)
		for _, np := range refPlacements(rng, g) {
			shape, pl := np.name, np.pl
			for _, d := range delays {
				delay := d.delay
				where := fmt.Sprintf("trial %d (n=%d, tied=%v) %s placement, %s delay", trial, g.NumNodes(), tied, shape, d.name)
				got, gotErr := buildWith(g, clonePlacement(pl), delay)
				want, wantErr := scanBuild(g, clonePlacement(pl), delay)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
				}
				if wantErr != nil {
					deadlocks++
				} else if !sameSchedule(got, want) {
					t.Fatalf("%s: schedule differs from the reference", where)
				}
			}
			// Build compacts the processors first; hold that path too.
			got, gotErr := Build(g, clonePlacement(pl))
			compact := clonePlacement(pl).Compact()
			want, wantErr := scanBuild(g, compact, UniformDelay)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && !sameSchedule(got, want)) {
				t.Fatalf("trial %d %s placement: Build differs from the compacted reference (%v, %v)", trial, shape, gotErr, wantErr)
			}
		}
	}
	if deadlocks == 0 {
		t.Fatal("no placement deadlocked; the error path went untested")
	}
}
