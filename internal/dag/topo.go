package dag

import (
	"fmt"

	"schedcomp/internal/bitset"
)

// TopoOrder returns the nodes in a deterministic topological order
// (Kahn's algorithm, smallest-ID-first among ready nodes) or ErrCycle
// if the graph is cyclic. The result is memoized per graph revision;
// callers must not mutate the returned slice.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.topoLocked()
}

// computeTopoOrder is the raw Kahn's-algorithm pass behind TopoOrder.
// It sweeps the flat CSR view rather than the [][]Arc mutation-time
// representation, as do all the cached analyses below. The ready
// nodes wait in a binary min-heap on ID, so the order is smallest ID
// first in O((V+E) log V) whatever the graph's shape; the heap and
// the in-degree countdown share one allocation.
func (g *Graph) computeTopoOrder() ([]NodeID, error) {
	csr := g.csrLocked()
	n := g.NumNodes()
	buf := make([]int32, 2*n)
	indeg, ready := buf[:n:n], buf[n:n]
	for i := range indeg {
		indeg[i] = int32(csr.InDegree(NodeID(i)))
		if indeg[i] == 0 {
			// Ascending IDs already form a valid min-heap.
			ready = append(ready, int32(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(ready) > 0 {
		var v int32
		v, ready = popMinID(ready)
		order = append(order, NodeID(v))
		succs, _ := csr.Succs(NodeID(v))
		for _, to := range succs {
			indeg[to]--
			if indeg[to] == 0 {
				ready = pushMinID(ready, int32(to))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d of %d nodes ordered", ErrCycle, len(order), n)
	}
	return order, nil
}

// pushMinID adds v to the min-heap h. h has room for every node, so
// the append never reallocates.
func pushMinID(h []int32, v int32) []int32 {
	h = append(h, v)
	siftID(h, uint(len(h)-1))
	return h
}

// popMinID removes and returns the smallest ID in the min-heap h.
func popMinID(h []int32) (int32, []int32) {
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	siftID(h, 0)
	return top, h
}

// siftID moves entry i of the min-heap h up or down to its place. The
// indices are unsigned and compared with the length right where they
// index, so the compiler proves every access in bounds.
func siftID(h []int32, i uint) {
	n := uint(len(h))
	for 0 < i && i < n {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	for i < n {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if c >= n || h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// TopoPositions returns pos such that pos[n] is node n's index in the
// deterministic topological order. The result is memoized per graph
// revision (and shares the cached TopoOrder); callers must not mutate
// the returned slice.
func (g *Graph) TopoPositions() ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.topoPositionsLocked()
}

// Descendants returns, for each node, the bit set of nodes strictly
// reachable from it (the node itself is excluded). The graph must be
// acyclic. The closure is memoized per graph revision; callers must
// not mutate the returned sets.
func (g *Graph) Descendants() ([]*bitset.Set, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.descendantsLocked()
}

func (g *Graph) computeDescendants(order []NodeID) []*bitset.Set {
	csr := g.csrLocked()
	n := g.NumNodes()
	desc := bitset.Carve(n, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		succs, _ := csr.Succs(v)
		for _, to := range succs {
			desc[v].Add(int(to))
			desc[v].Union(desc[to])
		}
	}
	return desc
}

// Ancestors returns, for each node, the bit set of nodes that strictly
// reach it. The graph must be acyclic. The closure is memoized per
// graph revision; callers must not mutate the returned sets.
func (g *Graph) Ancestors() ([]*bitset.Set, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ancestorsLocked()
}

func (g *Graph) computeAncestors(order []NodeID) []*bitset.Set {
	csr := g.csrLocked()
	n := g.NumNodes()
	anc := bitset.Carve(n, n)
	for _, v := range order {
		preds, _ := csr.Preds(v)
		for _, from := range preds {
			anc[v].Add(int(from))
			anc[v].Union(anc[from])
		}
	}
	return anc
}

// HasPath reports whether v is reachable from u by a non-empty path.
// It runs a DFS; for repeated queries use Descendants.
func (g *Graph) HasPath(u, v NodeID) bool {
	if u == v {
		return false
	}
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.succ[x] {
			if a.To == v {
				return true
			}
			if !seen[a.To] {
				seen[a.To] = true
				stack = append(stack, a.To)
			}
		}
	}
	return false
}
