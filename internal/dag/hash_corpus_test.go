package dag_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
)

// TestCanonicalHashCorpusCollisions hashes every graph of the
// schedbench corpus and requires all distinct graphs to get distinct
// fingerprints. Short mode uses the reduced corpus; the full run uses
// the paper's 2100-graph population. A fingerprint clash is only a bug
// if the canonical encodings differ too (equal encodings mean the
// graphs genuinely are isomorphic, which random generation never
// produces in practice — so both cases are reported fatally).
//
// The full run also pins every fingerprint: the SHA-256 over the
// corpus's fingerprints in generation order must not move, so work on
// the hashing code cannot silently change a single graph's identity.
func TestCanonicalHashCorpusCollisions(t *testing.T) {
	const pinned = "08c91eda96ff67c97c9d12f3ed8110d6ffab760340848234dd41c472758bff33"
	spec := corpus.PaperSpec(42)
	if testing.Short() {
		spec = corpus.SmallSpec(42)
	}
	digest := sha256.New()
	c, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dag.Fingerprint]*dag.Graph, c.NumGraphs())
	graphs := 0
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			graphs++
			fp := g.CanonicalHash()
			digest.Write(fp[:])
			prev, dup := seen[fp]
			if !dup {
				seen[fp] = g
				continue
			}
			if bytes.Equal(prev.CanonicalEncoding(), g.CanonicalEncoding()) {
				t.Fatalf("corpus graphs %q and %q are isomorphic (identical canonical encodings)",
					prev.Name(), g.Name())
			}
			t.Fatalf("fingerprint collision between distinct graphs %q and %q: %s",
				prev.Name(), g.Name(), fp)
		}
	}
	if len(seen) != graphs {
		t.Fatalf("%d graphs produced %d fingerprints", graphs, len(seen))
	}
	t.Logf("%d corpus graphs, %d distinct fingerprints", graphs, len(seen))
	if got := fmt.Sprintf("%x", digest.Sum(nil)); !testing.Short() && got != pinned {
		t.Fatalf("corpus fingerprint digest %s, pinned %s", got, pinned)
	}
}
