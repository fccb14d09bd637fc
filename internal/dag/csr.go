package dag

// CSR is a flat, struct-of-arrays compressed-sparse-row view of a
// graph's adjacency: node v's outgoing arcs are SuccTo[SuccOff[v]:
// SuccOff[v+1]] with weights at the same indices of SuccW, and the
// incoming mirror works the same way through PredOff/PredFrom/PredW.
// Arc order matches the mutation-time [][]Arc representation exactly
// (insertion order per endpoint), so an algorithm ported from
// Succs/Preds to the CSR view visits neighbours in the identical
// sequence and produces byte-identical results.
//
// The view is materialized lazily into the graph's analysis cache and
// invalidated by the same generation counter as every other memoized
// analysis: [][]Arc stays the representation mutations work on, while
// every scheduler inner loop iterates these contiguous slices with no
// per-node pointer chase. Like the other cached results, a CSR is a
// shared read-only snapshot — callers must not write its slices, and a
// view obtained before a mutation keeps describing the old revision,
// not the mutated graph.
type CSR struct {
	n int

	SuccOff []int32
	SuccTo  []NodeID
	SuccW   []int64

	PredOff []int32
	// PredFrom holds the predecessor node of each incoming arc (what
	// Preds exposes as Arc.To).
	PredFrom []NodeID
	PredW    []int64
}

// NumNodes returns the number of nodes in the viewed revision.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges returns the number of edges in the viewed revision.
func (c *CSR) NumEdges() int { return len(c.SuccTo) }

// Succs returns node v's successor IDs and the matching edge weights.
func (c *CSR) Succs(v NodeID) ([]NodeID, []int64) {
	lo, hi := c.SuccOff[v], c.SuccOff[v+1]
	return c.SuccTo[lo:hi], c.SuccW[lo:hi]
}

// Preds returns node v's predecessor IDs and the matching edge weights.
func (c *CSR) Preds(v NodeID) ([]NodeID, []int64) {
	lo, hi := c.PredOff[v], c.PredOff[v+1]
	return c.PredFrom[lo:hi], c.PredW[lo:hi]
}

// OutDegree returns the number of outgoing edges of v.
func (c *CSR) OutDegree(v NodeID) int { return int(c.SuccOff[v+1] - c.SuccOff[v]) }

// InDegree returns the number of incoming edges of v.
func (c *CSR) InDegree(v NodeID) int { return int(c.PredOff[v+1] - c.PredOff[v]) }

// CSR returns the flat adjacency view of the current revision,
// materializing it on first use. The result is memoized per graph
// revision and shared: callers must treat every slice as read-only.
func (g *Graph) CSR() *CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.csrLocked()
}

func (g *Graph) csrLocked() *CSR {
	c := g.ensureCache()
	ccCSR.count(c.csr != nil)
	if c.csr == nil {
		c.csr = g.buildCSR()
	}
	return c.csr
}

// buildCSR flattens both adjacency mirrors into contiguous arrays. Two
// backing allocations per direction (IDs and weights) plus the offset
// arrays — six total, whatever the node count — each filled by append
// within its exact capacity.
func (g *Graph) buildCSR() *CSR {
	n := len(g.weights)
	succOff, succTo, succW := make([]int32, 0, n+1), make([]NodeID, 0, g.edges), make([]int64, 0, g.edges)
	predOff, predFrom, predW := make([]int32, 0, n+1), make([]NodeID, 0, g.edges), make([]int64, 0, g.edges)
	pred := g.pred[:len(g.succ)]
	for v, arcs := range g.succ {
		succOff = append(succOff, int32(len(succTo)))
		for _, a := range arcs {
			succTo = append(succTo, a.To)
			succW = append(succW, a.Weight)
		}
		predOff = append(predOff, int32(len(predFrom)))
		for _, a := range pred[v] {
			predFrom = append(predFrom, a.To)
			predW = append(predW, a.Weight)
		}
	}
	return &CSR{
		n:        n,
		SuccOff:  append(succOff, int32(len(succTo))),
		SuccTo:   succTo,
		SuccW:    succW,
		PredOff:  append(predOff, int32(len(predFrom))),
		PredFrom: predFrom,
		PredW:    predW,
	}
}
