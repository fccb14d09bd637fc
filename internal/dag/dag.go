// Package dag implements the weighted directed acyclic graphs used as
// program dependence graphs (PDGs) throughout the scheduling testbed.
//
// Each node carries a weight (its execution time) and each edge carries
// a weight (the communication cost paid when the two endpoints run on
// different processors). The package provides construction, validation,
// topological traversal, reachability, the classic path metrics used by
// the heuristics (b-level, t-level, ALAP time, critical path), the graph
// classification metrics from the paper (granularity, anchor out-degree,
// node weight range), and JSON/DOT serialization.
package dag

import (
	"errors"
	"fmt"
	"sync"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1 in insertion order.
type NodeID int32

// Arc is one outgoing or incoming edge endpoint: the neighbour and the
// communication weight of the edge.
type Arc struct {
	To     NodeID
	Weight int64
}

// Edge is a fully specified edge, used for iteration and serialization.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight int64
}

// Graph is a weighted DAG. The zero value is an empty graph ready for
// use, but most callers use New to attach a name.
//
// Graphs memoize their derived analyses (topological order, levels,
// reachability closures — see cache.go). Reads may run concurrently
// from any number of goroutines; mutations require the same external
// synchronization against reads that the adjacency accessors always
// required. Graphs must not be copied by value after first use.
type Graph struct {
	name    string
	weights []int64
	succ    [][]Arc
	pred    [][]Arc
	edges   int

	mu    sync.Mutex // guards gen and cache
	gen   uint64     // mutation revision counter
	cache *analysisCache
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{name: name} }

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// SetName renames the graph. The name is reporting metadata, not an
// analysis input, so the rename deliberately leaves the cache
// generation alone.
//
//lint:nobump name does not feed any cached analysis
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.weights) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode appends a node with the given execution weight and returns
// its ID. Weights must be positive; AddNode panics otherwise, since a
// non-positive task time is always a construction bug.
func (g *Graph) AddNode(weight int64) NodeID {
	if weight <= 0 {
		panic(fmt.Sprintf("dag: non-positive node weight %d", weight))
	}
	g.weights = append(g.weights, weight)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.invalidate()
	return NodeID(len(g.weights) - 1)
}

// Errors returned by edge construction.
var (
	ErrSelfLoop      = errors.New("dag: self loop")
	ErrDuplicateEdge = errors.New("dag: duplicate edge")
	ErrNoSuchNode    = errors.New("dag: node out of range")
	ErrBadWeight     = errors.New("dag: edge weight must be non-negative")
	ErrCycle         = errors.New("dag: graph contains a cycle")
)

// AddEdge inserts the edge from→to with the given communication weight.
// It rejects self loops, duplicate edges, unknown endpoints and negative
// weights. It does not check acyclicity (Validate does).
func (g *Graph) AddEdge(from, to NodeID, weight int64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("%w: %d -> %d in graph of %d nodes", ErrNoSuchNode, from, to, g.NumNodes())
	}
	if from == to {
		return fmt.Errorf("%w: %d", ErrSelfLoop, from)
	}
	if weight < 0 {
		return fmt.Errorf("%w: %d", ErrBadWeight, weight)
	}
	for _, a := range g.succ[from] {
		if a.To == to {
			return fmt.Errorf("%w: %d -> %d", ErrDuplicateEdge, from, to)
		}
	}
	g.succ[from] = append(g.succ[from], Arc{To: to, Weight: weight})
	g.pred[to] = append(g.pred[to], Arc{To: from, Weight: weight})
	g.edges++
	g.invalidate()
	return nil
}

// carve returns per-node adjacency lists over one exact-size backing
// array. deg holds the n out-degrees followed by the n in-degrees:
// node v's successor list is a zero-length window of capacity deg[v],
// its predecessor list one of capacity deg[n+v]. Appending a node's
// arcs never reallocates, and the capped capacities make a later
// mutator's append copy rather than overwrite the next window. The
// wire decoder and the canonical clone build through it instead of
// AddEdge, whose duplicate scan is quadratic in the out-degree for
// hub-shaped graphs.
func carve(deg []int32, edges int) (succ, pred [][]Arc) {
	lists := make([][]Arc, len(deg))
	arcs := make([]Arc, 2*edges)
	off := int32(0)
	for v, d := range deg {
		lists[v] = arcs[off : off : off+d] //lint:boundedidx the degrees sum to len(arcs), so every window ends inside it
		off += d
	}
	n := len(deg) / 2
	return lists[:n:n], lists[n:]
}

// link appends the edge from→to to both of its endpoints' adjacency
// lists.
func link(succ, pred [][]Arc, from, to NodeID, w int64) {
	succ[from] = append(succ[from], Arc{To: to, Weight: w})
	pred[to] = append(pred[to], Arc{To: from, Weight: w})
}

// MustAddEdge is AddEdge that panics on error; for hand-built graphs in
// tests and examples.
func (g *Graph) MustAddEdge(from, to NodeID, weight int64) {
	if err := g.AddEdge(from, to, weight); err != nil {
		panic("dag: MustAddEdge: " + err.Error())
	}
}

// RemoveEdge deletes the edge from→to if present and reports whether it
// existed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	if !g.valid(from) || !g.valid(to) {
		return false
	}
	found := false
	for i, a := range g.succ[from] {
		if a.To == to {
			g.succ[from] = append(g.succ[from][:i], g.succ[from][i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	for i, a := range g.pred[to] {
		if a.To == from {
			g.pred[to] = append(g.pred[to][:i], g.pred[to][i+1:]...)
			break
		}
	}
	g.edges--
	g.invalidate()
	return true
}

// Weight returns the execution weight of node n.
func (g *Graph) Weight(n NodeID) int64 { return g.weights[n] }

// SetWeight changes the execution weight of node n.
func (g *Graph) SetWeight(n NodeID, w int64) {
	if w <= 0 {
		panic(fmt.Sprintf("dag: non-positive node weight %d", w))
	}
	g.weights[n] = w
	g.invalidate()
}

// EdgeWeight returns the weight of edge from→to and whether it exists.
func (g *Graph) EdgeWeight(from, to NodeID) (int64, bool) {
	if !g.valid(from) {
		return 0, false
	}
	for _, a := range g.succ[from] {
		if a.To == to {
			return a.Weight, true
		}
	}
	return 0, false
}

// SetEdgeWeight updates the weight of an existing edge and reports
// whether the edge was found.
func (g *Graph) SetEdgeWeight(from, to NodeID, w int64) bool {
	if !g.valid(from) || w < 0 {
		return false
	}
	for i, a := range g.succ[from] {
		if a.To == to {
			g.succ[from][i].Weight = w
			for j, p := range g.pred[to] {
				if p.To == from {
					g.pred[to][j].Weight = w
					break
				}
			}
			g.invalidate()
			return true
		}
	}
	return false
}

// MapEdgeWeights rewrites every edge weight in one pass: f receives
// each edge (in the deterministic Edges order) and returns its new
// weight, which must be non-negative. Both adjacency mirrors are
// updated and the analysis cache is invalidated once, so bulk
// recalibration (the generator's granularity walk) avoids the
// per-edge lookup and invalidation cost of SetEdgeWeight. It reports
// whether any weight changed.
func (g *Graph) MapEdgeWeights(f func(from, to NodeID, w int64) int64) bool {
	changed := false
	for u := range g.succ {
		for i := range g.succ[u] {
			a := &g.succ[u][i]
			nw := f(NodeID(u), a.To, a.Weight)
			if nw < 0 {
				panic(fmt.Sprintf("dag: MapEdgeWeights produced negative weight %d", nw))
			}
			if nw == a.Weight {
				continue
			}
			a.Weight = nw
			for j := range g.pred[a.To] {
				if g.pred[a.To][j].To == NodeID(u) {
					g.pred[a.To][j].Weight = nw
					break
				}
			}
			changed = true
		}
	}
	if changed {
		g.invalidate()
	}
	return changed
}

// Succs returns the outgoing arcs of n. Callers must not mutate the
// returned slice.
func (g *Graph) Succs(n NodeID) []Arc { return g.succ[n] }

// Preds returns the incoming arcs of n (Arc.To holds the predecessor).
// Callers must not mutate the returned slice.
func (g *Graph) Preds(n NodeID) []Arc { return g.pred[n] }

// OutDegree returns the number of outgoing edges of n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.succ[n]) }

// InDegree returns the number of incoming edges of n.
func (g *Graph) InDegree(n NodeID) int { return len(g.pred[n]) }

// Sources returns the nodes with no predecessors, in ID order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for i := range g.weights {
		if len(g.pred[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Sinks returns the nodes with no successors, in ID order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for i := range g.weights {
		if len(g.succ[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Edges returns every edge, ordered by (From, insertion order).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.succ {
		for _, a := range g.succ[u] {
			out = append(out, Edge{From: NodeID(u), To: a.To, Weight: a.Weight})
		}
	}
	return out
}

// SerialTime returns the sum of all node weights: the completion time of
// the whole program on a single processor.
func (g *Graph) SerialTime() int64 {
	var t int64
	for _, w := range g.weights {
		t += w
	}
	return t
}

// Clone returns a deep copy of the graph. The copy starts with an
// empty analysis cache at revision zero.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name:    g.name,
		weights: append([]int64(nil), g.weights...),
		succ:    make([][]Arc, len(g.succ)),
		pred:    make([][]Arc, len(g.pred)),
		edges:   g.edges,
	}
	for i := range g.succ {
		c.succ[i] = append([]Arc(nil), g.succ[i]...)
		c.pred[i] = append([]Arc(nil), g.pred[i]...)
	}
	return c
}

// Validate checks structural invariants: acyclicity and positive node
// weights. It returns nil for a well-formed PDG.
func (g *Graph) Validate() error {
	for i, w := range g.weights {
		if w <= 0 {
			return fmt.Errorf("dag: node %d has non-positive weight %d", i, w)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.weights) }
