package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// randomDAG builds a random DAG with n nodes where every edge goes from
// a smaller to a larger ID (hence acyclic by construction).
func randomDAG(rng *rand.Rand, n int, density float64) *Graph {
	g := New("random")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + rng.Intn(100)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				g.MustAddEdge(NodeID(i), NodeID(j), int64(rng.Intn(50)))
			}
		}
	}
	return g
}

func TestTopoOrderIsTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40), 0.2)
		order, err := g.TopoOrder()
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
		return len(order) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), 30, 0.15)
	a, _ := g.TopoOrder()
	b, _ := g.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
}

func TestTopoPositions(t *testing.T) {
	g := New("chain")
	a := g.AddNode(1)
	b := g.AddNode(1)
	c := g.AddNode(1)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	pos, err := g.TopoPositions()
	if err != nil {
		t.Fatal(err)
	}
	if pos[a] != 0 || pos[b] != 1 || pos[c] != 2 {
		t.Errorf("positions = %v", pos)
	}
}

func TestDescendantsAncestorsChain(t *testing.T) {
	g := New("chain")
	a := g.AddNode(1)
	b := g.AddNode(1)
	c := g.AddNode(1)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	desc, err := g.Descendants()
	if err != nil {
		t.Fatal(err)
	}
	if desc[a].Count() != 2 || !desc[a].Contains(int(c)) {
		t.Errorf("desc[a] = %v", desc[a])
	}
	if desc[c].Count() != 0 {
		t.Errorf("desc[c] = %v", desc[c])
	}
	anc, err := g.Ancestors()
	if err != nil {
		t.Fatal(err)
	}
	if anc[c].Count() != 2 || !anc[c].Contains(int(a)) {
		t.Errorf("anc[c] = %v", anc[c])
	}
	if anc[a].Count() != 0 {
		t.Errorf("anc[a] = %v", anc[a])
	}
}

// Property: v in desc[u] iff u in anc[v], and both agree with HasPath.
func TestClosureConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(25), 0.25)
		desc, err := g.Descendants()
		if err != nil {
			return false
		}
		anc, err := g.Ancestors()
		if err != nil {
			return false
		}
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				d := desc[u].Contains(v)
				if d != anc[v].Contains(u) {
					return false
				}
				if d != g.HasPath(NodeID(u), NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHasPathSelf(t *testing.T) {
	g := New("one")
	a := g.AddNode(1)
	if g.HasPath(a, a) {
		t.Error("HasPath(a,a) should be false (no non-empty path)")
	}
}

// descendingStar is the wire body of a hub with n-1 leaves whose edge
// list names the leaves in descending order, so the topological sort
// readies them in descending ID order, the worst case for a ready list
// kept sorted by insertion.
func descendingStar(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"name":"star","nodes":[1`)
	for i := 1; i < n; i++ {
		b.WriteString(",1")
	}
	b.WriteString(`],"edges":[`)
	for to := n - 1; to >= 1; to-- {
		if to < n-1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":0,"to":%d,"weight":1}`, to)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// TestDecodeDescendingStarUnderMaxBody decodes, and so validates and
// sorts, a descending hub star just under the server's default 8 MiB
// body limit. A ready list kept sorted by insertion took 27 s on this
// body; the heap takes about 0.1 s, decode included, in either edge
// order.
func TestDecodeDescendingStarUnderMaxBody(t *testing.T) {
	const n = 230000
	body := descendingStar(n)
	if len(body) >= 8<<20 || len(body) < 7<<20 {
		t.Fatalf("body is %d bytes, want just under 8 MiB", len(body))
	}
	start := time.Now()
	g, err := DecodeJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed, bound := time.Since(start), raceSlowdown*2*time.Second; elapsed > bound {
		t.Errorf("decoding a %d-node descending star took %v, bound %v", n, elapsed, bound)
	}
	for i, v := range order {
		if v != NodeID(i) {
			t.Fatalf("order[%d] = %d, want smallest ID first", i, v)
		}
	}
}
