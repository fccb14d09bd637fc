package dag_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"schedcomp/internal/dag"
)

// FuzzGraphJSONRoundTrip feeds arbitrary bytes to the JSON decoder.
// Inputs the decoder rejects are fine; inputs it accepts must survive a
// marshal/unmarshal round trip with identical structure, and the
// marshaled form must be a fixed point (marshal∘unmarshal∘marshal is
// the identity on the wire bytes).
func FuzzGraphJSONRoundTrip(f *testing.F) {
	for _, s := range dag.WireSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := dag.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected input; the decoder just must not panic
		}
		out1, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal of accepted graph failed: %v", err)
		}
		g2, err := dag.ReadJSON(bytes.NewReader(out1))
		if err != nil {
			t.Fatalf("re-decode of own output failed: %v\noutput: %s", err, out1)
		}
		out2, err := json.Marshal(g2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("marshal not a fixed point:\n first: %s\nsecond: %s", out1, out2)
		}
		if g.Name() != g2.Name() || g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() {
			t.Fatalf("structure changed: (%q,%d,%d) vs (%q,%d,%d)",
				g.Name(), g.NumNodes(), g.NumEdges(), g2.Name(), g2.NumNodes(), g2.NumEdges())
		}
		for i := 0; i < g.NumNodes(); i++ {
			if g.Weight(dag.NodeID(i)) != g2.Weight(dag.NodeID(i)) {
				t.Fatalf("weight of node %d changed", i)
			}
		}
		for _, e := range g.Edges() {
			w, ok := g2.EdgeWeight(e.From, e.To)
			if !ok || w != e.Weight {
				t.Fatalf("edge %d->%d (weight %d) lost or changed", e.From, e.To, e.Weight)
			}
		}
	})
}
