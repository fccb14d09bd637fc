package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
)

// Request populations of the serve workloads. The base graphs are the
// paper's 60 classes at 24–48 nodes, basesPerClass per class, generated
// from the run's seed. A stream is an endless, seed-determined sequence
// of request bodies over those bases: request k is a pure function of
// (seed, k), so the check after a window regenerates the graph each
// response must fit instead of keeping request bodies around.
//
// Request k belongs to class k mod 60, so every run, however many
// requests it completes, sends the same mix of classes. Granularity
// decides most of what a request costs and whether its schedule meets
// the lower bound; drawing classes at random would move the serve
// metrics by several percent from seed to seed.
const (
	baseMinNodes = 24
	baseMaxNodes = 48
	// basesPerClass sets the population's size: 2400 bases, whose 2400
	// canonical classes serve_dup repeats (four variants each), below
	// schedserve's 4096 cache entries. How often MCP meets the lower
	// bound varies from graph to graph; over ten seeds, the share's IQR
	// was 10% of its median with 10 bases per class and 5.5% with 40.
	basesPerClass = 40
	// freshDigits is how many nodes a fresh request perturbs: 8^8
	// requests before content could repeat.
	freshDigits = 8
)

// wireGraph is the /schedule request body.
type wireGraph struct {
	Name  string     `json:"name,omitempty"`
	Nodes []int64    `json:"nodes"`
	Edges []wireEdge `json:"edges"`
}

type wireEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Weight int64 `json:"weight"`
}

func toWire(g *dag.Graph) wireGraph {
	w := wireGraph{Name: g.Name(), Nodes: make([]int64, g.NumNodes())}
	for v := range w.Nodes {
		w.Nodes[v] = g.Weight(dag.NodeID(v))
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, wireEdge{From: int(e.From), To: int(e.To), Weight: e.Weight})
	}
	return w
}

// graph builds the graph the server decodes from w: nodes and edges in
// wire order.
func (w wireGraph) graph() (*dag.Graph, error) {
	g := dag.New(w.Name)
	for _, wt := range w.Nodes {
		g.AddNode(wt)
	}
	for _, e := range w.Edges {
		if err := g.AddEdge(dag.NodeID(e.From), dag.NodeID(e.To), e.Weight); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

// relabel returns an isomorphic copy of w under a random node
// permutation with shuffled edge order: the same canonical class in
// different bytes.
func relabel(w wireGraph, rng *rand.Rand) wireGraph {
	order := rng.Perm(len(w.Nodes)) // order[new] = old
	inv := make([]int, len(order))
	for nw, old := range order {
		inv[old] = nw
	}
	out := wireGraph{Name: w.Name + "-perm", Nodes: make([]int64, len(order)), Edges: make([]wireEdge, len(w.Edges))}
	for nw, old := range order {
		out.Nodes[nw] = w.Nodes[old]
	}
	for i, e := range w.Edges {
		out.Edges[i] = wireEdge{From: inv[e.From], To: inv[e.To], Weight: e.Weight}
	}
	rng.Shuffle(len(out.Edges), func(i, j int) { out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i] })
	return out
}

// variant is one precompiled repeat request.
type variant struct {
	wire wireGraph
	body []byte
}

// stream generates the request sequence of one serve workload.
type stream struct {
	seed  int64
	dup   float64
	bases []wireGraph // in class order, basesPerClass per class
	// pool holds, per base, the identical, a renamed and two relabeled
	// copies.
	pool [][4]variant
}

// newStream generates the base population from seed and, when dup > 0,
// the repeat pool.
func newStream(seed int64, dup float64) (*stream, error) {
	c, err := corpus.Generate(corpus.Spec{Seed: seed, GraphsPerSet: basesPerClass, MinNodes: baseMinNodes, MaxNodes: baseMaxNodes})
	if err != nil {
		return nil, err
	}
	s := &stream{seed: seed, dup: dup}
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			s.bases = append(s.bases, toWire(g))
		}
	}
	if dup == 0 {
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eedd0b))
	for _, w := range s.bases {
		renamed := w
		renamed.Name += "-renamed"
		var vs [4]variant
		for j, vw := range []wireGraph{w, renamed, relabel(w, rng), relabel(w, rng)} {
			body, err := json.Marshal(vw)
			if err != nil {
				return nil, err
			}
			vs[j] = variant{vw, body}
		}
		s.pool = append(s.pool, vs)
	}
	return s, nil
}

// splitmix is a tiny counter-based generator: request k draws from its
// own stream, so requests are independent of which client sends them.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// wire returns request k. With probability dup it is a pool variant;
// otherwise it is a base perturbed by k, content no other request has.
// A negative k names warm-up request -k-1: the identical copy of that
// repeat base.
func (s *stream) wire(k int64) (w wireGraph, body []byte) {
	if k < 0 {
		v := s.pool[-k-1][0]
		return v.wire, v.body
	}
	r := splitmix(uint64(s.seed)*0xD1B54A32D192ED03 ^ uint64(k))
	classes := int64(len(s.bases) / basesPerClass)
	i := (k%classes)*basesPerClass + int64(r.next()%basesPerClass)
	if s.dup > 0 && float64(r.next()>>11)/(1<<53) < s.dup {
		v := s.pool[i][r.next()%4]
		return v.wire, v.body
	}
	w = s.bases[i]
	w.Nodes = perturb(w.Nodes, k)
	w.Name = fmt.Sprintf("%s-fresh%d", w.Name, k)
	return w, nil
}

// perturb adds the base-8 digits of k to the weights of freshDigits
// nodes spread over the graph. Distinct k below 8^freshDigits give
// distinct weight vectors, and no weight moves by more than 7, so a
// fresh request is new content that stays in its base's class however
// long the stream runs.
func perturb(weights []int64, k int64) []int64 {
	out := append([]int64(nil), weights...)
	for i := 0; i < freshDigits; i++ {
		out[i*len(out)/freshDigits] += (k >> (3 * i)) & 7
	}
	return out
}

// body returns request k's bytes.
func (s *stream) body(k int64) ([]byte, error) {
	w, body := s.wire(k)
	if body != nil {
		return body, nil
	}
	return json.Marshal(w)
}

// graph returns the graph request k carries.
func (s *stream) graph(k int64) (*dag.Graph, error) {
	w, _ := s.wire(k)
	return w.graph()
}

// warmNumbers are the requests a fresh server sees before any other:
// one copy of each repeat base, so the repeat pool is cached as it
// would be in a long-running server.
func (s *stream) warmNumbers() []int64 {
	ks := make([]int64, len(s.pool))
	for i := range ks {
		ks[i] = -int64(i) - 1
	}
	return ks
}
