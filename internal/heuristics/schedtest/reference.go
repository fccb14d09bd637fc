package schedtest

import (
	"fmt"
	"math/rand"
	"testing"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/paperex"
	"schedcomp/internal/sched"
	"schedcomp/internal/workloads"
)

// NamedGraph is one input of ReferenceCorpus, labelled for failure
// messages.
type NamedGraph struct {
	Label string
	Graph *dag.Graph
}

// ReferenceCorpus returns the graphs an incremental heuristic is held
// to against its whole-graph reference: the paper's worked example,
// the determinism corpus, 40 dense random DAGs, one graph of each of
// the 60 corpus classes, workloads.All at four cost settings (zero
// communication included), and 2000 small DAGs whose node weights of
// 1–3 and edge weights of 0–2 make priorities tie at almost every
// step, so every tie rule shows.
func ReferenceCorpus(t *testing.T) []NamedGraph {
	t.Helper()
	out := []NamedGraph{{"paper worked example", paperex.Graph()}}
	for gi, g := range DeterminismCorpus(t, 20260805) {
		out = append(out, NamedGraph{fmt.Sprintf("determinism corpus graph %d (%s)", gi, g.Name()), g})
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		n := 5 + rng.Intn(60)
		g := RandomDAG(rng, n, 0.15+0.5*rng.Float64())
		out = append(out, NamedGraph{fmt.Sprintf("random DAG %d (n=%d)", i, n), g})
	}
	c, err := corpus.Generate(corpus.Spec{Seed: 7, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 56})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			out = append(out, NamedGraph{"corpus " + set.Class.String() + " " + g.Name(), g})
		}
	}
	for _, cost := range [][2]int64{{1, 1}, {10, 1}, {1, 10}, {3, 0}} {
		for _, g := range workloads.All(cost[0], cost[1]) {
			out = append(out, NamedGraph{fmt.Sprintf("workload %s at cost %v", g.Name(), cost), g})
		}
	}
	rng = rand.New(rand.NewSource(2000))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(40)
		g := dag.New("tied")
		for v := 0; v < n; v++ {
			g.AddNode(int64(1 + rng.Intn(3)))
		}
		density := 0.05 + 0.5*rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					g.MustAddEdge(dag.NodeID(u), dag.NodeID(v), int64(rng.Intn(3)))
				}
			}
		}
		out = append(out, NamedGraph{fmt.Sprintf("tied DAG %d (n=%d)", i, n), g})
	}
	return out
}

// FuzzGraph decodes fuzz bytes into a DAG of at most 40 nodes: the
// first byte gives the node count, the next bytes the node weights
// (1–8), and each following triple an edge from the lower to the
// higher of two node indices with weight 0–3. Duplicate and self
// edges are skipped, and missing bytes read as zero, so every input
// decodes.
func FuzzGraph(data []byte) *dag.Graph {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := at(0) % 41
	g := dag.New("fuzz")
	for v := 0; v < n; v++ {
		g.AddNode(int64(1 + at(1+v)%8))
	}
	if n < 2 {
		return g
	}
	seen := make(map[[2]int]bool)
	for i := 1 + n; i+2 < len(data); i += 3 {
		u, v := at(i)%n, at(i+1)%n
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.MustAddEdge(dag.NodeID(u), dag.NodeID(v), int64(at(i+2)%4))
	}
	return g
}

// FuzzSeeds returns FuzzGraph encodings of the empty graph, one node,
// a five-node chain, and a uniform fork-join whose edges weigh zero.
func FuzzSeeds() [][]byte {
	chain := []byte{5, 2, 2, 2, 2, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1}
	forkJoin := []byte{6, 1, 1, 1, 1, 1, 1}
	for mid := byte(1); mid <= 4; mid++ {
		forkJoin = append(forkJoin, 0, mid, 0, mid, 5, 0)
	}
	return [][]byte{{}, {1, 3}, chain, forkJoin}
}

// PlacementString serializes a placement so that equal strings mean
// identical decisions: the same processor for every task and the same
// order on every processor.
func PlacementString(pl *sched.Placement) string {
	return fmt.Sprintf("proc=%v order=%v", pl.Proc, pl.Order)
}
