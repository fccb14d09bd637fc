// Package schedtest provides the shared conformance suite every
// scheduling heuristic must pass: valid schedules on arbitrary random
// DAGs, determinism, and sane behaviour on degenerate inputs. Each
// heuristic package runs it from its own tests.
package schedtest

import (
	"math/rand"
	"runtime"
	"testing"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/gen"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

// RandomDAG builds a random DAG whose edges all go from smaller to
// larger IDs.
func RandomDAG(rng *rand.Rand, n int, density float64) *dag.Graph {
	g := dag.New("random")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + rng.Intn(100)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), int64(rng.Intn(60)))
			}
		}
	}
	return g
}

// GeneratedDAG builds a structured PDG via the paper's generator.
func GeneratedDAG(seed int64, anchor int, band gen.Band) *dag.Graph {
	return gen.MustGenerate(gen.Params{
		Nodes:  60,
		Anchor: anchor,
		WMin:   20,
		WMax:   200,
		Gran:   band,
	}, seed)
}

// Conform runs the full conformance suite against factory's scheduler.
func Conform(t *testing.T, factory func() heuristics.Scheduler) {
	t.Helper()
	t.Run("EmptyGraph", func(t *testing.T) {
		s := factory()
		pl, err := s.Schedule(dag.New("empty"))
		if err != nil {
			t.Fatal(err)
		}
		if pl.NumProcs() != 0 {
			t.Errorf("empty graph used %d procs", pl.NumProcs())
		}
	})
	t.Run("SingleNode", func(t *testing.T) {
		g := dag.New("one")
		g.AddNode(42)
		sc, err := heuristics.Run(factory(), g)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Makespan != 42 || sc.NumProcs != 1 {
			t.Errorf("single node: makespan %d on %d procs", sc.Makespan, sc.NumProcs)
		}
	})
	t.Run("ChainStaysSerialTime", func(t *testing.T) {
		// A pure chain has no parallelism: any valid heuristic must
		// produce exactly the serial time (no heuristic pays comm on a
		// chain it keeps together; even if it splits, the schedule
		// must still validate).
		g := dag.New("chain")
		var prev dag.NodeID = -1
		for i := 0; i < 8; i++ {
			v := g.AddNode(int64(10 + i))
			if prev >= 0 {
				g.MustAddEdge(prev, v, 5)
			}
			prev = v
		}
		sc, err := heuristics.Run(factory(), g)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Makespan < g.SerialTime() {
			t.Errorf("chain makespan %d below serial %d: invalid", sc.Makespan, g.SerialTime())
		}
	})
	t.Run("RandomDAGsValidate", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := RandomDAG(rng, 1+rng.Intn(50), 0.05+0.3*rng.Float64())
			sc, err := heuristics.Run(factory(), g)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if sc.Makespan <= 0 && g.NumNodes() > 0 {
				t.Fatalf("seed %d: non-positive makespan", seed)
			}
		}
	})
	t.Run("GeneratedPDGsValidate", func(t *testing.T) {
		for i, band := range gen.PaperBands() {
			g := GeneratedDAG(int64(100+i), 2+i%4, band)
			if _, err := heuristics.Run(factory(), g); err != nil {
				t.Fatalf("band %v: %v", band, err)
			}
		}
	})
	t.Run("Deterministic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		g := RandomDAG(rng, 40, 0.2)
		a, err := factory().Schedule(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := factory().Schedule(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Proc) != len(b.Proc) {
			t.Fatal("placement sizes differ")
		}
		for i := range a.Proc {
			if a.Proc[i] != b.Proc[i] {
				t.Fatalf("node %d placed on %d then %d", i, a.Proc[i], b.Proc[i])
			}
		}
	})
	t.Run("DoesNotMutateGraph", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		g := RandomDAG(rng, 30, 0.2)
		before := g.Clone()
		if _, err := factory().Schedule(g); err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != before.NumNodes() || g.NumEdges() != before.NumEdges() {
			t.Fatal("scheduler mutated the graph structure")
		}
		for i := 0; i < g.NumNodes(); i++ {
			if g.Weight(dag.NodeID(i)) != before.Weight(dag.NodeID(i)) {
				t.Fatal("scheduler mutated node weights")
			}
		}
		for _, e := range before.Edges() {
			w, ok := g.EdgeWeight(e.From, e.To)
			if !ok || w != e.Weight {
				t.Fatal("scheduler mutated edges")
			}
		}
	})
}

// DeterminismCorpus generates the seeded graph slice RequireDeterministic
// schedules: one graph from every fifth corpus class, so all five
// granularity bands and several anchor/weight shapes are covered without
// making the double-scheduling pass expensive.
func DeterminismCorpus(t *testing.T, seed int64) []*dag.Graph {
	t.Helper()
	spec := corpus.Spec{Seed: seed, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 40}
	c, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*dag.Graph
	for i := 0; i < len(c.Sets); i += 5 {
		graphs = append(graphs, c.Sets[i].Graphs...)
	}
	return graphs
}

// RequireDeterministic is the dynamic twin of the schedlint static
// suite: it instantiates every registered heuristic twice per corpus
// graph (fresh instances, so no state can leak between runs) and
// requires byte-identical placements. Any map-iteration or other
// nondeterminism in a heuristic shows up here as a placement diff.
// A third run under GOMAXPROCS(1) must also match: a heuristic whose
// output depends on goroutine interleaving (worker pools, racing
// channels) diverges between single-threaded and parallel execution
// even when back-to-back runs in the same environment happen to agree.
func RequireDeterministic(t *testing.T) {
	graphs := DeterminismCorpus(t, 20260805)
	for _, name := range heuristics.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for gi, g := range graphs {
				first, err := mustNew(t, name).Schedule(g)
				if err != nil {
					t.Fatalf("graph %d (%s): %v", gi, g.Name(), err)
				}
				second, err := mustNew(t, name).Schedule(g)
				if err != nil {
					t.Fatalf("graph %d (%s) second run: %v", gi, g.Name(), err)
				}
				a, b := PlacementString(first), PlacementString(second)
				if a != b {
					t.Fatalf("graph %d (%s): placements differ between runs\n run 1: %s\n run 2: %s",
						gi, g.Name(), a, b)
				}
				single, err := scheduleSingleThreaded(mustNew(t, name), g)
				if err != nil {
					t.Fatalf("graph %d (%s) GOMAXPROCS=1 run: %v", gi, g.Name(), err)
				}
				if c := PlacementString(single); c != a {
					t.Fatalf("graph %d (%s): placement depends on GOMAXPROCS\n default: %s\n procs=1: %s",
						gi, g.Name(), a, c)
				}
			}
		})
	}
}

// scheduleSingleThreaded runs one scheduling pass with GOMAXPROCS
// pinned to 1, restoring the previous value afterwards. Callers must
// not run in parallel subtests: GOMAXPROCS is process-global.
func scheduleSingleThreaded(s heuristics.Scheduler, g *dag.Graph) (*sched.Placement, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return s.Schedule(g)
}

func mustNew(t *testing.T, name string) heuristics.Scheduler {
	t.Helper()
	s, err := heuristics.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// BuildAndValidate is a convenience wrapper used by heuristic-specific
// tests.
func BuildAndValidate(t *testing.T, s heuristics.Scheduler, g *dag.Graph) *sched.Schedule {
	t.Helper()
	sc, err := heuristics.Run(s, g)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
