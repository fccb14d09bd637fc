package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// WireSeeds are the wire bodies the dag fuzz targets start from:
// valid graphs, every fromWire rejection, and malformed JSON.
func WireSeeds() [][]byte {
	seed := New("seed")
	a := seed.AddNode(3)
	b := seed.AddNode(5)
	c := seed.AddNode(7)
	seed.MustAddEdge(a, b, 2)
	seed.MustAddEdge(a, c, 4)
	var buf bytes.Buffer
	if err := seed.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return [][]byte{
		buf.Bytes(),
		[]byte(`{"nodes":[],"edges":[]}`),
		[]byte(`{"name":"x","nodes":[1,2],"edges":[{"from":0,"to":1,"weight":0}]}`),
		[]byte(`{"nodes":[1,2],"edges":[{"from":1,"to":0,"weight":1},{"from":0,"to":1,"weight":1}]}`),
		[]byte(`{"nodes":[-1]}`),
		[]byte(`not json at all`),
		// Wire-validation rejection paths: self loop, duplicate edge,
		// out-of-range endpoint, negative edge weight, oversized name,
		// and trailing data after a valid object.
		[]byte(`{"nodes":[1,2],"edges":[{"from":0,"to":0,"weight":1}]}`),
		[]byte(`{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":1},{"from":0,"to":1,"weight":2}]}`),
		[]byte(`{"nodes":[1,2],"edges":[{"from":0,"to":5,"weight":1}]}`),
		[]byte(`{"nodes":[1,2],"edges":[{"from":-1,"to":1,"weight":1}]}`),
		[]byte(`{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":-1}]}`),
		append(append([]byte(`{"name":"`), bytes.Repeat([]byte("A"), MaxWireName+1)...), []byte(`","nodes":[1]}`)...),
		[]byte(`{"nodes":[1],"edges":[]}{"nodes":[2],"edges":[]}`),
		[]byte(`{"nodes":[1],"edges":[]}garbage`),
	}
}

// wireFuzzSeeds adds to WireSeeds the bodies of schedserve's
// handler fuzz target and the inputs on either side of the fast path's
// subset.
func wireFuzzSeeds() [][]byte {
	seeds := WireSeeds()
	for _, s := range []string{
		// schedserve's FuzzScheduleHandler seeds.
		`{
  "name": "sample-fork-join",
  "nodes": [12, 30, 25, 18, 40, 22, 15],
  "edges": [
    {"from": 0, "to": 1, "weight": 5},
    {"from": 0, "to": 2, "weight": 8},
    {"from": 4, "to": 6, "weight": 9}
  ]
}
`,
		`this is not json`,
		`{"nodes":[9223372036854775807,9223372036854775807],"edges":[]}`,
		`{"nodes":[5,5],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`,
		`{"nodes":[5,5],"edges":[{"from":0,"to":1,"weight":1},{"from":0,"to":1,"weight":2}]}`,
		`{"nodes":[5],"edges":[{"from":0,"to":0,"weight":1}]}`,
		`{"nodes":[1,2],"edges":[{"from":0,"to":99,"weight":1}]}`,
		`{"nodes":[-4],"edges":[]}`,
		``,
		`[{"nodes":[1],"edges":[]}]`,
		`{"nodes":[1],"edges":[]}trailing`,
		`{"nodes":[5,5,5],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":2,"weight":1},{"from":2,"to":0,"weight":1}]}`,
		`{"nodes":[9223372036854775807,1099511627777],"edges":[{"from":0,"to":1,"weight":9223372036854775807}]}`,
		`{"nodes":[10,20,"edges":`,
		`[{"nodes":[-1],"edges":[]},null]`,
		`{"name":"diamond","nodes":[10,20,30,10],"edges":[{"from":0,"to":1,"weight":5},{"from":0,"to":2,"weight":5},{"from":1,"to":3,"weight":5},{"from":2,"to":3,"weight":5}]}`,
		// Keys encoding/json folds or merges, which the fast path leaves
		// to it: case-folded and Unicode-folded keys, repeated keys.
		`{"Nodes":[1,2],"edges":[{"from":0,"to":1,"weight":1}]}`,
		`{"nodeſ":[1,2],"edges":[]}`,
		`{"nodes":[1,2,3],"edges":[{"from":0,"to":1}],"edges":[{"weight":4},{"from":1,"to":2,"weight":5}]}`,
		`{"nodes":[1],"nodes":[2,3]}`,
		`{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":1,"weight":2}]}`,
		`{"nodes":[1,2],"edges":[{"From":0,"TO":1,"weight":1}]}`,
		// null, escapes in the name, an unknown field.
		`null`,
		`{"name":null,"nodes":null,"edges":null}`,
		`{"nodes":[1,null],"edges":[null]}`,
		`{"name":"a\"b\\c\u00e9\n","nodes":[1]}`,
		`{"name":"<a&b>","nodes":[1]}`,
		"{\"name\":\"caf\xc3\xa9 \xff\",\"nodes\":[1]}",
		`{"nodes":[1],"edges":[],"extra":true}`,
		`{"nodes":[1]}`,
		// Numbers: negative zero, exponents, fractions, 18 and 19 digits,
		// leading zeros, a bare minus, and endpoints past int32.
		`{"nodes":[-0,1],"edges":[{"from":-0,"to":1,"weight":-0}]}`,
		`{"nodes":[1e2]}`,
		`{"nodes":[1.0]}`,
		`{"nodes":[1E2, 2]}`,
		`{"nodes":[100000000000000000]}`,
		`{"nodes":[999999999999999999]}`,
		`{"nodes":[1000000000000000000]}`,
		`{"nodes":[1,1],"edges":[{"from":0,"to":1,"weight":1000000000000000000}]}`,
		`{"nodes":[01]}`,
		`{"nodes":[-]}`,
		`{"nodes":[1,1],"edges":[{"from":999999999,"to":1,"weight":1}]}`,
		`{"nodes":[1,1],"edges":[{"from":2147483648,"to":1,"weight":1}]}`,
		`{"nodes":[1,1],"edges":[{"from":0,"to":1,"weight":1099511627777}]}`,
		`{"nodes":[1099511627777]}`,
		`{"nodes":[1099511627776]}`,
		// Whitespace everywhere it may go, and empty containers.
		" \t\r\n{ \"name\" : \"ws\" , \"nodes\" : [ 1 , 2 ] , \"edges\" : [ { \"from\" : 0 , \"to\" : 1 , \"weight\" : 3 } ] } \n",
		`{}`,
		`{"edges":[{}]}`,
		`{"nodes":[1,2],"edges":[{"to":1}]}`,
		`{"nodes":[1,2,]}`,
		`{"nodes":[1 2]}`,
		`{"nodes":[1],}`,
		`{"name":"x"`,
		"{\"name\":\"tab\there\"}",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// sameGraph reports whether a and b have the same name, weights, and
// arcs in the same order.
func sameGraph(a, b *Graph) bool {
	if a.name != b.name || a.edges != b.edges || !slices.Equal(a.weights, b.weights) ||
		len(a.succ) != len(b.succ) || len(a.pred) != len(b.pred) {
		return false
	}
	for v := range a.succ {
		if !slices.Equal(a.succ[v], b.succ[v]) || !slices.Equal(a.pred[v], b.pred[v]) {
			return false
		}
	}
	return true
}

// checkFastPath holds the single-pass decoder to encoding/json on one
// body. It reports whether the fast path took the body.
func checkFastPath(t *testing.T, data []byte) bool {
	t.Helper()
	var fast jsonGraph
	if !scanWire(data, &fast) {
		return false
	}
	var ref jsonGraph
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("fast path accepted %q; encoding/json rejects it: %v", data, err)
	}
	if fast.Name != ref.Name || !slices.Equal(fast.Nodes, ref.Nodes) || !slices.Equal(fast.Edges, ref.Edges) ||
		(fast.Nodes == nil) != (ref.Nodes == nil) || (fast.Edges == nil) != (ref.Edges == nil) {
		t.Fatalf("%q: fast path decoded %+v, encoding/json %+v", data, fast, ref)
	}
	gf, errf := fromWire(&fast)
	gr, errr := fromWire(&ref)
	switch {
	case (errf == nil) != (errr == nil):
		t.Fatalf("%q: fromWire errors differ: %v vs %v", data, errf, errr)
	case errf != nil && errf.Error() != errr.Error():
		t.Fatalf("%q: fromWire errors differ: %v vs %v", data, errf, errr)
	case errf == nil && !sameGraph(gf, gr):
		t.Fatalf("%q: graphs differ", data)
	}
	return true
}

// FuzzWireDecode is a differential target: every body the single-pass
// decoder accepts must decode to the same wire graph under
// encoding/json, and fromWire must build the same graph, or fail with
// the same error, from both.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastPath(t, data)
	})
}

// Bodies on both sides of the subset land where they should: the
// folded, repeated, escaped, unknown and non-integer forms go to
// encoding/json; the rest take the fast path.
func TestWireFastPathSubset(t *testing.T) {
	for _, c := range []struct {
		body string
		fast bool
	}{
		{`{"name":"x","nodes":[1,2],"edges":[{"from":0,"to":1,"weight":3}]}`, true},
		{`{"edges":[{"weight":3,"to":1,"from":0}],"nodes":[1,2],"name":"x"}`, true},
		{" {\"nodes\" : [ 1 ] } \n\t", true},
		{`{"nodes":null,"edges":null}`, true},
		{`{}`, true},
		{`{"nodes":[-0,999999999999999999]}`, true},
		{`{"name":"<a&b> ~!","nodes":[1]}`, true},
		{`{"nodes":[1],"edges":[]}garbage`, false},
		{`{} x`, false},
		{`{"Nodes":[1]}`, false},
		{`{"nodeſ":[1]}`, false},
		{`{"nodes":[1],"nodes":[2]}`, false},
		{`{"nodes":[1],"extra":0}`, false},
		{`{"name":"a\"b","nodes":[1]}`, false},
		{`{"name":"\u0041","nodes":[1]}`, false},
		{"{\"name\":\"caf\xc3\xa9\",\"nodes\":[1]}", false},
		{`{"name":null}`, false},
		{`{"nodes":[1e2]}`, false},
		{`{"nodes":[1.0]}`, false},
		{`{"nodes":[01]}`, false},
		{`{"nodes":[1000000000000000000]}`, false},
		{`{"nodes":[1],"edges":[{"from":1000000000,"to":0}]}`, false},
		{`{"nodes":[1],"edges":[null]}`, false},
		{`null`, false},
		{`[]`, false},
	} {
		if got := checkFastPath(t, []byte(c.body)); got != c.fast {
			t.Errorf("%q: fast path %v, want %v", c.body, got, c.fast)
		}
	}
}

// clientWire mirrors the structs the benchmark and schedload marshal
// request bodies from (bench/stream.go, cmd/schedload/loadgen.go).
type clientWire struct {
	Name  string       `json:"name,omitempty"`
	Nodes []int64      `json:"nodes"`
	Edges []clientEdge `json:"edges"`
}

type clientEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Weight int64 `json:"weight"`
}

// Every body shape the repository's clients send takes the fast path:
// json.Marshal of the client wire struct under the names they give
// (base, renamed, relabeled, fresh, unnamed), and MarshalJSON and
// WriteJSON output of a Graph, including one without edges.
func TestClientBodiesTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bodies [][]byte
	for i := 0; i < 40; i++ {
		n := 24 + rng.Intn(25)
		w := clientWire{Name: fmt.Sprintf("set%02d-g%02d", i%60, i%35)}
		for v := 0; v < n; v++ {
			w.Nodes = append(w.Nodes, int64(1+rng.Intn(1<<20)))
		}
		for v := 1; v < n; v++ {
			w.Edges = append(w.Edges, clientEdge{From: rng.Intn(v), To: v, Weight: int64(rng.Intn(1 << 20))})
		}
		for _, name := range []string{w.Name, w.Name + "-renamed", w.Name + "-perm", fmt.Sprintf("%s-fresh%d", w.Name, rng.Int63n(1<<40)), ""} {
			w.Name = name
			body, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	lone := New("lone")
	lone.AddNode(4)
	if body, _ := json.Marshal(lone); !strings.Contains(string(body), `"edges":null`) {
		t.Fatalf("an edge-less graph should marshal its edges as null: %s", body)
	}
	for _, h := range []*Graph{allocGraph(), lone, New("")} {
		body, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := h.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body, buf.Bytes())
	}
	for _, body := range bodies {
		if !checkFastPath(t, body) {
			t.Errorf("client body left the fast path: %.120s", body)
		}
	}
}
