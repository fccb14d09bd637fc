package mcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
)

func TestConformance(t *testing.T) {
	schedtest.Conform(t, func() heuristics.Scheduler { return New() })
}

func TestPaperExample(t *testing.T) {
	g := paperex.Graph()
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.Makespan != 130 {
		t.Errorf("makespan = %d, want 130", sc.Makespan)
	}
	if sc.NumProcs != 2 {
		t.Errorf("procs = %d, want 2", sc.NumProcs)
	}
}

func TestOrderOnPaperExample(t *testing.T) {
	// ALAP times are 0, 76, 15, 55, 100; ascending lexicographic
	// comparison of the descendant lists yields 0, 2, 3, 1, 4
	// (zero-based), i.e. the critical path first.
	g := paperex.Graph()
	order, err := New().order(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []dag.NodeID{0, 2, 3, 1, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: the MCP scheduling order is topologically consistent (a
// node's own ALAP is strictly below all its descendants').
func TestOrderTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := schedtest.RandomDAG(rng, 2+rng.Intn(40), 0.2)
		order, err := New().order(g)
		if err != nil {
			return false
		}
		pos := make([]int, g.NumNodes())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionFillsGap(t *testing.T) {
	// Fork: root -> heavy path and a cheap independent task. With
	// insertion the cheap task can slot into the idle gap left on a
	// processor; without insertion it must queue at the end or open a
	// new processor. Both must validate; insertion must never be
	// worse.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		g := schedtest.RandomDAG(rng, 25, 0.25)
		with := schedtest.BuildAndValidate(t, &MCP{Insertion: true}, g)
		without := schedtest.BuildAndValidate(t, &MCP{Insertion: false}, g)
		// Insertion is a strictly larger search space per decision but
		// greedy, so no strict dominance holds graph-by-graph; just
		// check both are valid and record that they can differ.
		_ = with
		_ = without
	}
}

func TestNewProcessorOnlyWhenStrictlyBetter(t *testing.T) {
	// Two independent equal tasks: the second can start at time w on
	// processor 0 or time 0 on a new processor — strictly better, so
	// MCP must open it.
	g := dag.New("pair")
	g.AddNode(10)
	g.AddNode(10)
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.NumProcs != 2 || sc.Makespan != 10 {
		t.Errorf("got %d procs makespan %d, want 2 procs 10", sc.NumProcs, sc.Makespan)
	}
}

func TestStaysTogetherWhenCommHuge(t *testing.T) {
	// Fork with huge edges: waiting on the parent's processor beats
	// paying communication, so everything serializes.
	g := dag.New("huge")
	a := g.AddNode(10)
	b := g.AddNode(10)
	c := g.AddNode(10)
	g.MustAddEdge(a, b, 10000)
	g.MustAddEdge(a, c, 10000)
	sc := schedtest.BuildAndValidate(t, New(), g)
	if sc.NumProcs != 1 {
		t.Errorf("procs = %d, want 1", sc.NumProcs)
	}
	if sc.Makespan != 30 {
		t.Errorf("makespan = %d, want 30", sc.Makespan)
	}
}

// orderOracle is the MCP order as first written: every node's full
// ALAP list (own T_L plus all descendants', ascending), compared
// lexicographically, shorter list first, then by node ID.
func orderOracle(g *dag.Graph) ([]dag.NodeID, error) {
	alap, err := g.ALAPTimes()
	if err != nil {
		return nil, err
	}
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	lists := make([][]int64, n)
	for i := 0; i < n; i++ {
		l := []int64{alap[i]}
		desc[i].ForEach(func(j int) { l = append(l, alap[j]) })
		slices.Sort(l)
		lists[i] = l
	}
	order := make([]dag.NodeID, n)
	for i := range order {
		order[i] = dag.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := lists[order[a]], lists[order[b]]
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				return la[i] < lb[i]
			}
		}
		if len(la) != len(lb) {
			return len(la) < len(lb)
		}
		return order[a] < order[b]
	})
	return order, nil
}

// uniform returns g's shape with every node weight 1 and every edge
// weight w: equal ALAP times, and so ties, become common.
func uniform(g *dag.Graph, w int64) *dag.Graph {
	u := dag.New(g.Name())
	for i := 0; i < g.NumNodes(); i++ {
		u.AddNode(1)
	}
	for _, e := range g.Edges() {
		u.MustAddEdge(e.From, e.To, w)
	}
	return u
}

// The order sorts by T_L and compares ALAP lists only among ties; it
// must equal the full-list oracle on the paper's 2100-graph corpus and
// on uniform-weight copies of it, where ties are the rule.
func TestOrderMatchesFullListOracle(t *testing.T) {
	spec := corpus.PaperSpec(1994)
	if testing.Short() {
		spec = corpus.SmallSpec(1994)
	}
	c, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	graphs, tied := 0, 0
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			for _, h := range []*dag.Graph{g, uniform(g, 1), uniform(g, 0)} {
				got, err := New().order(h)
				if err != nil {
					t.Fatal(err)
				}
				want, err := orderOracle(h)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: order %v, oracle %v", h.Name(), got, want)
				}
				alap, _ := h.ALAPTimes()
				distinct := slices.Clone(alap)
				slices.Sort(distinct)
				if len(slices.Compact(distinct)) < len(alap) {
					tied++
				}
				graphs++
			}
		}
	}
	t.Logf("%d graphs, %d with tied ALAP times", graphs, tied)
	if tied == 0 {
		t.Fatal("no graph had a tie: the tie path went untested")
	}
}
