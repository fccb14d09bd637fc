package dag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// jsonGraph is the wire form of a Graph.
type jsonGraph struct {
	Name  string     `json:"name,omitempty"`
	Nodes []int64    `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonEdge struct {
	From   int32 `json:"from"`
	To     int32 `json:"to"`
	Weight int64 `json:"weight"`
}

// MarshalJSON encodes the graph as {name, nodes:[weights], edges:[...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.name, Nodes: append([]int64(nil), g.weights...)}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{From: int32(e.From), To: int32(e.To), Weight: e.Weight})
	}
	return json.Marshal(jg)
}

// MaxWireWeight bounds node and edge weights accepted from JSON.
// Weights are summed along paths and across processors during
// scheduling; capping each term far below MaxInt64 keeps every such
// sum overflow-free for any graph that fits in a request body.
const MaxWireWeight = 1 << 40

// MaxWireName bounds the graph name accepted from JSON. The name is
// reporting metadata only; without a cap a request body could be
// almost entirely name and still parse as a "small" graph.
const MaxWireName = 1024

// ErrTrailingData is returned by ReadJSON when the input continues
// past the graph object. Accepting trailing bytes would let two
// callers disagree about what was submitted (and silently drop data),
// so the wire format is exactly one JSON value.
var ErrTrailingData = errors.New("dag: trailing data after graph JSON")

// UnmarshalJSON decodes a graph previously written by MarshalJSON,
// validated as fromWire describes.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if !scanWire(data, &jg) {
		jg = jsonGraph{}
		if err := json.Unmarshal(data, &jg); err != nil {
			return err
		}
	}
	ng, err := fromWire(&jg)
	if err != nil {
		return err
	}
	// Field-wise assignment: Graph holds a mutex, so the struct must
	// not be copied as a value.
	g.name = ng.name
	g.weights = ng.weights
	g.succ = ng.succ
	g.pred = ng.pred
	g.edges = ng.edges
	g.invalidate()
	return nil
}

// fromWire builds and fully validates a decoded wire graph: bounded
// name, positive bounded weights, in-range endpoints, no self loops or
// duplicate edges, and acyclic. The graph takes ownership of
// jg.Nodes. Every check is O(V+E): duplicates are found by stamping
// each successor list, where AddEdge's per-insert scan is
// O(out-degree) and an adversarial hub-shaped body would turn it into
// O(E²) work before validation could reject it. Arcs keep wire order.
func fromWire(jg *jsonGraph) (*Graph, error) {
	if len(jg.Name) > MaxWireName {
		return nil, fmt.Errorf("dag: name of %d bytes exceeds limit %d", len(jg.Name), MaxWireName)
	}
	for i, w := range jg.Nodes {
		if w <= 0 {
			return nil, fmt.Errorf("dag: node %d has non-positive weight %d", i, w)
		}
		if w > MaxWireWeight {
			return nil, fmt.Errorf("dag: node %d weight %d exceeds limit %d", i, w, int64(MaxWireWeight))
		}
	}
	n := len(jg.Nodes)
	deg := make([]int32, 2*n)
	out, in := deg[:n], deg[n:]
	for _, e := range jg.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("%w: %d -> %d in graph of %d nodes", ErrNoSuchNode, e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("%w: %d", ErrSelfLoop, e.From)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("%w: %d", ErrBadWeight, e.Weight)
		}
		if e.Weight > MaxWireWeight {
			return nil, fmt.Errorf("dag: edge %d->%d weight %d exceeds limit %d", e.From, e.To, e.Weight, int64(MaxWireWeight))
		}
		out[e.From]++
		in[e.To]++
	}
	g := &Graph{name: jg.Name, weights: jg.Nodes, edges: len(jg.Edges)}
	g.succ, g.pred = carve(deg, len(jg.Edges))
	for _, e := range jg.Edges {
		link(g.succ, g.pred, NodeID(e.From), NodeID(e.To), e.Weight)
	}
	// The degrees are spent: reuse them as stamps, last[v] = u+1 once
	// u->v has been seen, so a second u->v finds its own mark.
	last := out
	clear(last)
	for u, arcs := range g.succ {
		for _, a := range arcs {
			if last[a.To] == int32(u)+1 {
				return nil, fmt.Errorf("%w: %d -> %d", ErrDuplicateEdge, u, a.To)
			}
			last[a.To] = int32(u) + 1
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteJSON writes the graph to w as a single JSON object.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g)
}

// ReadJSON decodes exactly one graph from r, validated as fromWire
// describes; anything but whitespace after the object is rejected with
// ErrTrailingData. It reads r to EOF first; see DecodeJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeJSON(data)
}

// DecodeJSON is ReadJSON for a body already in memory. Bodies in the
// subset scanWire reads are decoded in one pass; every other body goes
// through encoding/json, which accepts, rejects and reports errors
// exactly as it always has. Both paths end in fromWire.
func DecodeJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if scanWire(data, &jg) {
		return fromWire(&jg)
	}
	jg = jsonGraph{}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&jg); err != nil {
		return nil, err
	}
	g, err := fromWire(&jg)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, ErrTrailingData
	}
	return g, nil
}

// DOT renders the graph in Graphviz dot syntax with node and edge
// weights as labels. Output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	name := g.name
	if name == "" {
		name = "pdg"
	}
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=circle];\n")
	for i, w := range g.weights {
		fmt.Fprintf(&b, "  n%d [label=\"%d\\n(%d)\"];\n", i, i, w)
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", e.From, e.To, e.Weight)
	}
	b.WriteString("}\n")
	return b.String()
}
