package clans

import (
	"context"
	"testing"

	"schedcomp/internal/clan"
	"schedcomp/internal/dag"
	"schedcomp/internal/paperex"
)

func newBuilder(t *testing.T, g *dag.Graph) *builder {
	t.Helper()
	pos, err := g.TopoPositions()
	if err != nil {
		t.Fatal(err)
	}
	return &builder{c: New(), g: g, ctx: context.Background(), topoPos: pos, index: make([]int32, g.NumNodes()), prim: (*builder).primitive}
}

func TestBoundaryCommPaperExample(t *testing.T) {
	g := paperex.Graph()
	b := newBuilder(t, g)
	// Node 2 (ID 1): in-edge 1->2 weight 5, out-edge 2->5 weight 4 —
	// the paper's 5 + 20 + 4 = 29 walkthrough.
	in, out := b.boundaryComm([]dag.NodeID{1})
	if in != 5 || out != 4 {
		t.Errorf("node 2 boundary = %d/%d, want 5/4", in, out)
	}
	// Clan {3,4} (IDs 2,3): in 1->3 weight 5, out 4->5 weight 5; the
	// internal 3->4 edge must not count.
	in, out = b.boundaryComm([]dag.NodeID{2, 3})
	if in != 5 || out != 5 {
		t.Errorf("clan {3,4} boundary = %d/%d, want 5/5", in, out)
	}
}

func TestRootFragmentCostMatchesPaper(t *testing.T) {
	// The paper's bottom-up walkthrough ends with cost
	// 10 + 70 + 50 = 130 at the root.
	g := paperex.Graph()
	tree, err := clan.Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, g)
	frag := b.schedule(tree.Root)
	if frag.cost != 130 {
		t.Errorf("root cost = %d, want 130", frag.cost)
	}
	if len(frag.lanes) != 2 {
		t.Errorf("lanes = %d, want 2", len(frag.lanes))
	}
}

func TestIndependentDecisionSerializesWhenCommWins(t *testing.T) {
	// Two tiny parallel tasks behind huge boundary edges: clustering
	// must win, producing a single lane with both tasks.
	g := dag.New("serialize")
	src := g.AddNode(10)
	a := g.AddNode(10)
	bb := g.AddNode(10)
	sink := g.AddNode(10)
	g.MustAddEdge(src, a, 500)
	g.MustAddEdge(src, bb, 500)
	g.MustAddEdge(a, sink, 500)
	g.MustAddEdge(bb, sink, 500)
	tree, err := clan.Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, g)
	frag := b.schedule(tree.Root)
	if len(frag.lanes) != 1 {
		t.Errorf("lanes = %d, want 1 (everything clustered)", len(frag.lanes))
	}
	if frag.cost != 40 {
		t.Errorf("cost = %d, want serial 40", frag.cost)
	}
}

func TestIndependentKeepsHeaviestChildHome(t *testing.T) {
	// Heavy chain and a light task in an independent clan: the chain
	// stays on the home lane (lane 0), the light task moves off.
	g := dag.New("home")
	src := g.AddNode(5)
	h1 := g.AddNode(100)
	h2 := g.AddNode(100)
	light := g.AddNode(10)
	sink := g.AddNode(5)
	g.MustAddEdge(src, h1, 2)
	g.MustAddEdge(h1, h2, 2)
	g.MustAddEdge(src, light, 2)
	g.MustAddEdge(h2, sink, 2)
	g.MustAddEdge(light, sink, 2)
	tree, err := clan.Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	b := newBuilder(t, g)
	frag := b.schedule(tree.Root)
	if len(frag.lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(frag.lanes))
	}
	home := frag.lanes[0]
	foundHeavy := false
	for _, v := range home {
		if v == h1 {
			foundHeavy = true
		}
		if v == light {
			t.Error("light task ended up on the home lane")
		}
	}
	if !foundHeavy {
		t.Error("heavy chain not on the home lane")
	}
}

func TestEtfSerializesExpensiveSubgraph(t *testing.T) {
	// The internal ETF must report a makespan >= serial only when
	// parallelism does not pay; on a comm-heavy pair of independent
	// chains joined crosswise (a primitive), the guarded primitive
	// handler returns the serial fragment.
	g := dag.New("prim")
	a := g.AddNode(10)
	bb := g.AddNode(10)
	c := g.AddNode(10)
	d := g.AddNode(10)
	g.MustAddEdge(a, c, 500)
	g.MustAddEdge(a, d, 500)
	g.MustAddEdge(bb, d, 500)
	tree, err := clan.Parse(g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Kind != clan.Primitive {
		t.Fatalf("expected primitive root, got %v", tree.Root.Kind)
	}
	b := newBuilder(t, g)
	frag := b.primitive(tree.Root)
	if len(frag.lanes) != 1 || frag.cost != 40 {
		t.Errorf("primitive fragment: %d lanes cost %d, want 1/40", len(frag.lanes), frag.cost)
	}
}
