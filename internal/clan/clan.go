// Package clan implements the clan-based graph decomposition of
// McCreary & Gill: parsing a DAG into a unique hierarchy (parse tree)
// of subgraphs called clans, which the CLANS scheduler then costs
// bottom-up.
//
// A set of vertices C of graph G is a clan iff for all x, y in C and
// every z outside C: z is an ancestor of x iff z is an ancestor of y,
// and z is a descendant of x iff z is a descendant of y — i.e. the
// outside world cannot tell members of C apart. Clans are exactly the
// modules of the 2-structure that colours every vertex pair with one of
// {ancestor, descendant, incomparable} according to reachability.
//
// The parse tree is built by recursive splitting:
//
//   - independent clan: the comparability graph over the members is
//     disconnected; the components are the children and may execute
//     concurrently (no paths between them);
//   - linear clan: the incomparability graph is disconnected and its
//     components can be merged into blocks that are totally ordered by
//     uniform reachability; the blocks are the children and must
//     execute sequentially;
//   - primitive clan: neither split applies; the clan has no uniform
//     internal structure. (A primitive clan's proper strong modules, if
//     any, are not extracted — its children are the individual
//     vertices. See DESIGN.md: the CLANS scheduler handles primitives
//     with an internal list scheduler, so only schedule quality within
//     the primitive, never correctness, is affected.)
//
// Because every set this recursion descends into is itself a clan,
// reachability between members never routes through external vertices,
// so the global transitive closure restricted to the member set is the
// correct internal relation.
package clan

import (
	"fmt"
	"slices"
	"strings"

	"schedcomp/internal/arena"
	"schedcomp/internal/bitset"
	"schedcomp/internal/dag"
)

// Kind classifies a parse tree node.
type Kind int

const (
	// Leaf is a single task.
	Leaf Kind = iota
	// Linear clans execute their children sequentially: every vertex
	// of child i is an ancestor of every vertex of child i+1.
	Linear
	// Independent clans may execute their children concurrently: no
	// paths exist between children.
	Independent
	// Primitive clans have no uniform internal structure.
	Primitive
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Linear:
		return "linear"
	case Independent:
		return "independent"
	case Primitive:
		return "primitive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one clan in the parse tree.
type Node struct {
	Kind Kind
	// Task is the graph node for Leaf clans.
	Task dag.NodeID
	// Children are the sub-clans: in precedence order for Linear
	// clans, in an arbitrary (but deterministic) order otherwise.
	Children []*Node
	// Members lists the graph nodes of this clan, ascending.
	Members []dag.NodeID
}

// Size returns the number of graph nodes in the clan.
func (n *Node) Size() int { return len(n.Members) }

// Tree is the parse tree of a graph.
type Tree struct {
	Graph *dag.Graph
	Root  *Node
}

// Parse decomposes g into its clan parse tree. It fails only if g is
// cyclic. A graph with no nodes yields a nil Root.
func Parse(g *dag.Graph) (*Tree, error) {
	scratch := arena.Get()
	defer scratch.Release()
	p, err := newParser(g, scratch)
	if err != nil {
		return nil, err
	}
	t := &Tree{Graph: g}
	n := g.NumNodes()
	if n == 0 {
		return t, nil
	}
	members := make([]dag.NodeID, n)
	for i := range members {
		members[i] = dag.NodeID(i)
	}
	t.Root = p.decompose(members)
	return t, nil
}

type parser struct {
	desc []*bitset.Set
	anc  []*bitset.Set
	// Scratch reused across the single-threaded recursion.
	unvisited bitset.Set
	tmp       bitset.Set
	comp      bitset.Set
	stack     []dag.NodeID
}

// newParser returns a parser over g's cached closures. Its BFS scratch
// (three bit sets and the work stack) lives in scratch for the
// duration of the parse; the tree itself is built from ordinary
// allocations since it escapes.
func newParser(g *dag.Graph, scratch *arena.Scratch) (*parser, error) {
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	anc, err := g.Ancestors()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	return &parser{
		desc:      desc,
		anc:       anc,
		unvisited: scratch.Bitset(n),
		tmp:       scratch.Bitset(n),
		comp:      scratch.Bitset(n),
		stack:     scratch.NodeIDs(n)[:0],
	}, nil
}

// before reports whether u is an ancestor of v.
func (p *parser) before(u, v dag.NodeID) bool {
	return p.desc[u].Contains(int(v))
}

func (p *parser) decompose(members []dag.NodeID) *Node {
	if len(members) == 1 {
		return &Node{Kind: Leaf, Task: members[0], Members: members}
	}

	// Independent split: components of the comparability graph.
	if comps := p.components(members, false); len(comps) > 1 {
		node := &Node{Kind: Independent, Members: members}
		for _, c := range comps {
			node.Children = append(node.Children, p.decompose(c))
		}
		return node
	}

	// Linear split: components of the incomparability graph, merged
	// until the cross-block order is uniform.
	blocks := p.components(members, true)
	if len(blocks) > 1 {
		blocks = p.mergeNonUniform(blocks)
	}
	if len(blocks) > 1 {
		// Order the blocks: uniform reachability between blocks is a
		// strict total order (transitive via reachability).
		slices.SortFunc(blocks, func(a, b []dag.NodeID) int {
			switch {
			case p.before(a[0], b[0]):
				return -1
			case p.before(b[0], a[0]):
				return 1
			}
			return 0
		})
		node := &Node{Kind: Linear, Members: members}
		for _, b := range blocks {
			node.Children = append(node.Children, p.decompose(b))
		}
		return node
	}

	// Primitive: children are the individual vertices.
	node := &Node{Kind: Primitive, Members: members}
	for _, v := range members {
		node.Children = append(node.Children, &Node{Kind: Leaf, Task: v, Members: []dag.NodeID{v}})
	}
	return node
}

// mergeNonUniform repeatedly unions any two blocks whose cross pairs
// are not uniformly ordered, until every remaining pair of blocks is
// fully ordered in one direction.
func (p *parser) mergeNonUniform(blocks [][]dag.NodeID) [][]dag.NodeID {
	for {
		merged := false
	outer:
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				if p.uniform(blocks[i], blocks[j]) {
					continue
				}
				blocks[i] = mergeSorted(blocks[i], blocks[j])
				blocks = append(blocks[:j], blocks[j+1:]...)
				merged = true
				break outer
			}
		}
		if !merged {
			return blocks
		}
	}
}

// uniform reports whether every pair (a ∈ A, b ∈ B) is ordered the same
// way. Callers guarantee all cross pairs are comparable (they came from
// distinct incomparability components, possibly merged).
func (p *parser) uniform(a, b []dag.NodeID) bool {
	first := p.before(a[0], b[0])
	for _, x := range a {
		for _, y := range b {
			if p.before(x, y) != first {
				return false
			}
		}
	}
	return true
}

// components partitions members into connected components of the
// comparability relation (incomparable=false) or of its complement
// within the member set (incomparable=true).
//
// Rather than testing all O(k²) member pairs, each BFS step expands a
// whole neighbourhood word-parallel from the cached closures: u is
// comparable to exactly desc[u] ∪ anc[u], so the unvisited neighbours
// of u are (desc[u] ∪ anc[u]) ∩ unvisited, and under incomparability
// the complement, unvisited ∖ desc[u] ∖ anc[u].
//
// Each component is gathered in a bit set and emitted ascending, and
// components are ordered by their smallest member, so the result is
// deterministic: every caller passes members ascending, and BFS seeds
// are taken in that order.
func (p *parser) components(members []dag.NodeID, incomparable bool) [][]dag.NodeID {
	uv, tmp, comp := &p.unvisited, &p.tmp, &p.comp
	uv.Clear()
	for _, v := range members {
		uv.Add(int(v))
	}
	var out [][]dag.NodeID
	for _, seed := range members {
		if !uv.Contains(int(seed)) {
			continue
		}
		uv.Remove(int(seed))
		comp.Clear()
		comp.Add(int(seed))
		p.stack = append(p.stack[:0], seed)
		for len(p.stack) > 0 {
			u := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			if incomparable {
				tmp.CopyFrom(uv)
				tmp.Subtract(p.desc[u])
				tmp.Subtract(p.anc[u])
			} else {
				tmp.CopyFrom(p.desc[u])
				tmp.Union(p.anc[u])
				tmp.Intersect(uv)
			}
			uv.Subtract(tmp)
			comp.Union(tmp)
			for i := tmp.Next(0); i >= 0; i = tmp.Next(i + 1) {
				p.stack = append(p.stack, dag.NodeID(i))
			}
		}
		out = append(out, ascending(comp))
	}
	return out
}

// ascending returns the members of s in increasing order, in a slice
// of exactly their number.
func ascending(s *bitset.Set) []dag.NodeID {
	out := make([]dag.NodeID, 0, s.Count())
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, dag.NodeID(i))
	}
	return out
}

func mergeSorted(a, b []dag.NodeID) []dag.NodeID {
	out := make([]dag.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Walk visits every node of the tree in depth-first preorder.
func (t *Tree) Walk(f func(n *Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Counts returns the number of parse tree nodes of each kind.
func (t *Tree) Counts() map[Kind]int {
	out := map[Kind]int{}
	t.Walk(func(n *Node) { out[n.Kind]++ })
	return out
}

// String renders the tree with indentation, for debugging and golden
// tests.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		if n.Kind == Leaf {
			fmt.Fprintf(&b, "leaf %d\n", n.Task)
		} else {
			fmt.Fprintf(&b, "%s %v\n", n.Kind, n.Members)
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}

// IsClan reports whether the member set satisfies the clan definition
// in g: every external vertex is an ancestor of all members or of
// none, and a descendant of all members or of none.
func IsClan(g *dag.Graph, members []dag.NodeID) (bool, error) {
	desc, err := g.Descendants()
	if err != nil {
		return false, err
	}
	in := make([]bool, g.NumNodes())
	for _, m := range members {
		in[m] = true
	}
	if len(members) == 0 {
		return true, nil
	}
	first := members[0]
	for z := 0; z < g.NumNodes(); z++ {
		if in[z] {
			continue
		}
		ancFirst := desc[z].Contains(int(first))
		descFirst := desc[first].Contains(z)
		for _, m := range members[1:] {
			if desc[z].Contains(int(m)) != ancFirst {
				return false, nil
			}
			if desc[m].Contains(z) != descFirst {
				return false, nil
			}
		}
	}
	return true, nil
}

// Validate checks that every internal node of the parse tree is a
// valid clan of the graph and that children partition their parent.
func (t *Tree) Validate() error {
	if t.Root == nil {
		if t.Graph.NumNodes() != 0 {
			return fmt.Errorf("clan: nil root for non-empty graph")
		}
		return nil
	}
	if len(t.Root.Members) != t.Graph.NumNodes() {
		return fmt.Errorf("clan: root covers %d of %d nodes", len(t.Root.Members), t.Graph.NumNodes())
	}
	var err error
	t.Walk(func(n *Node) {
		if err != nil {
			return
		}
		ok, e := IsClan(t.Graph, n.Members)
		if e != nil {
			err = e
			return
		}
		if !ok {
			err = fmt.Errorf("clan: %s node %v is not a clan", n.Kind, n.Members)
			return
		}
		if n.Kind == Leaf {
			if len(n.Members) != 1 || len(n.Children) != 0 {
				err = fmt.Errorf("clan: malformed leaf %v", n.Members)
			}
			return
		}
		seen := map[dag.NodeID]bool{}
		total := 0
		for _, c := range n.Children {
			for _, m := range c.Members {
				if seen[m] {
					err = fmt.Errorf("clan: node %d in two children of %v", m, n.Members)
					return
				}
				seen[m] = true
			}
			total += len(c.Members)
		}
		if total != len(n.Members) {
			err = fmt.Errorf("clan: children of %v cover %d of %d members", n.Members, total, len(n.Members))
		}
	})
	return err
}
