package dag_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"schedcomp/internal/dag"
)

func mustReject(t *testing.T, body string, wantErr error) {
	t.Helper()
	_, err := dag.ReadJSON(strings.NewReader(body))
	if err == nil {
		t.Fatalf("accepted %q", body)
	}
	if wantErr != nil && !errors.Is(err, wantErr) {
		t.Fatalf("rejected %q with %v, want %v", body, err, wantErr)
	}
}

func TestWireRejectsMalformedGraphs(t *testing.T) {
	mustReject(t, `{"nodes":[1,2],"edges":[{"from":0,"to":0,"weight":1}]}`, dag.ErrSelfLoop)
	mustReject(t, `{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":1},{"from":0,"to":1,"weight":2}]}`, dag.ErrDuplicateEdge)
	mustReject(t, `{"nodes":[1,2],"edges":[{"from":0,"to":7,"weight":1}]}`, dag.ErrNoSuchNode)
	mustReject(t, `{"nodes":[1,2],"edges":[{"from":-3,"to":1,"weight":1}]}`, dag.ErrNoSuchNode)
	mustReject(t, `{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":-1}]}`, dag.ErrBadWeight)
	mustReject(t, `{"nodes":[0],"edges":[]}`, nil)  // non-positive node weight
	mustReject(t, `{"nodes":[-5],"edges":[]}`, nil) // negative node weight
	mustReject(t, fmt.Sprintf(`{"nodes":[%d],"edges":[]}`, int64(dag.MaxWireWeight)+1), nil)
	mustReject(t, fmt.Sprintf(`{"nodes":[1,1],"edges":[{"from":0,"to":1,"weight":%d}]}`, int64(dag.MaxWireWeight)+1), nil)
	// Cycle through the wire.
	mustReject(t, `{"nodes":[1,1],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`, dag.ErrCycle)
}

func TestWireRejectsOversizedName(t *testing.T) {
	body := `{"name":"` + strings.Repeat("A", dag.MaxWireName+1) + `","nodes":[1],"edges":[]}`
	mustReject(t, body, nil)
	// At the limit is fine.
	ok := `{"name":"` + strings.Repeat("A", dag.MaxWireName) + `","nodes":[1],"edges":[]}`
	if _, err := dag.ReadJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("rejected name at the limit: %v", err)
	}
}

func TestReadJSONRejectsTrailingData(t *testing.T) {
	mustReject(t, `{"nodes":[1],"edges":[]}{"nodes":[2],"edges":[]}`, dag.ErrTrailingData)
	mustReject(t, `{"nodes":[1],"edges":[]}garbage`, dag.ErrTrailingData)
	mustReject(t, `{"nodes":[1],"edges":[]} 0`, dag.ErrTrailingData)
	// Trailing whitespace (what WriteJSON emits) stays accepted.
	var buf bytes.Buffer
	g := dag.New("ws")
	g.AddNode(3)
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(" \n\t ")
	if _, err := dag.ReadJSON(&buf); err != nil {
		t.Fatalf("rejected trailing whitespace: %v", err)
	}
}

// TestWireDecodeHubGraphLinear guards the O(E) decode path: a star
// graph with one hub fanning out to every other node used to cost
// O(E²) in AddEdge's duplicate scan. 200k edges should decode in well
// under a second; the quadratic path took minutes.
func TestWireDecodeHubGraphLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("large decode in -short mode")
	}
	const n = 200_001
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('1')
	}
	b.WriteString(`],"edges":[`)
	for i := 1; i < n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":0,"to":%d,"weight":1}`, i)
	}
	b.WriteString(`]}`)

	t0 := time.Now()
	g, err := dag.ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != n-1 {
		t.Fatalf("decoded %d edges, want %d", g.NumEdges(), n-1)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("hub decode took %v — duplicate scan is quadratic again", elapsed)
	}
}

func TestWireRoundTripStillWorks(t *testing.T) {
	g := dag.New("roundtrip")
	a := g.AddNode(3)
	b := g.AddNode(5)
	c := g.AddNode(7)
	g.MustAddEdge(a, b, 2)
	g.MustAddEdge(b, c, 0)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dag.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "roundtrip" || got.NumNodes() != 3 || got.NumEdges() != 2 {
		t.Fatalf("round trip lost structure: %q %d %d", got.Name(), got.NumNodes(), got.NumEdges())
	}
	if w, ok := got.EdgeWeight(b, c); !ok || w != 0 {
		t.Fatal("zero-weight edge lost")
	}
}

// Decoded adjacency lives in windows carved from one backing array. The
// duplicate stamp must catch a repeat anywhere in a source's list
// without confusing two sources that share a target, arcs keep wire
// order, and mutating a decoded graph must never write into a
// neighbouring node's window.
func TestWireCarvedAdjacency(t *testing.T) {
	mustReject(t, `{"nodes":[1,1,1],"edges":[{"from":0,"to":2,"weight":1},{"from":0,"to":1,"weight":1},{"from":0,"to":2,"weight":3}]}`, dag.ErrDuplicateEdge)
	g, err := dag.ReadJSON(strings.NewReader(`{"nodes":[1,1,1,1],"edges":[` +
		`{"from":0,"to":3,"weight":1},{"from":1,"to":3,"weight":2},{"from":0,"to":2,"weight":3},{"from":1,"to":2,"weight":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, got, want []dag.Arc) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	want("Succs(0)", g.Succs(0), []dag.Arc{{To: 3, Weight: 1}, {To: 2, Weight: 3}})
	want("Preds(3)", g.Preds(3), []dag.Arc{{To: 0, Weight: 1}, {To: 1, Weight: 2}})

	g.MustAddEdge(0, 1, 9) // appends past node 0's full successor window
	v := g.AddNode(5)      // appends past the per-node list arrays
	g.MustAddEdge(v, 0, 7)
	want("Succs(0)", g.Succs(0), []dag.Arc{{To: 3, Weight: 1}, {To: 2, Weight: 3}, {To: 1, Weight: 9}})
	want("Succs(1)", g.Succs(1), []dag.Arc{{To: 3, Weight: 2}, {To: 2, Weight: 4}})
	want("Preds(0)", g.Preds(0), []dag.Arc{{To: v, Weight: 7}})
	want("Preds(1)", g.Preds(1), []dag.Arc{{To: 0, Weight: 9}})
	want("Preds(2)", g.Preds(2), []dag.Arc{{To: 0, Weight: 3}, {To: 1, Weight: 4}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
