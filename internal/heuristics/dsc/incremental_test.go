package dsc

import (
	"math/rand"
	"testing"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
)

// requireSamePlacement schedules g with DSC and with the whole-graph
// reference and fails on any divergence in processor or order.
func requireSamePlacement(t *testing.T, g *dag.Graph, label string) {
	t.Helper()
	fast, err := New().Schedule(g)
	if err != nil {
		t.Fatalf("%s: DSC: %v", label, err)
	}
	slow, err := referenceSchedule(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if a, b := schedtest.PlacementString(fast), schedtest.PlacementString(slow); a != b {
		t.Fatalf("%s: DSC and the full-recompute reference diverge\n DSC:       %s\n reference: %s", label, a, b)
	}
}

// TestIncrementalMatchesFullRecompute is the golden equivalence suite:
// static levels and the two priority heaps must reproduce the per-step
// level refresh and whole-graph rescan byte for byte, ties included.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, ng := range schedtest.ReferenceCorpus(t) {
		requireSamePlacement(t, ng.Graph, ng.Label)
	}
}

// FuzzDSCReference holds DSC to the reference on fuzz-built DAGs of
// up to 40 nodes.
func FuzzDSCReference(f *testing.F) {
	for _, seed := range schedtest.FuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSamePlacement(t, schedtest.FuzzGraph(data), "fuzz graph")
	})
}

// TestStaticLevelInvariant checks, after every step, the facts the
// heaps rest on: every successor of an unplaced task is unplaced, so
// the cluster-aware level of an unplaced task is still its b-level;
// every free task is queued once at startbound (recomputed from its
// placed predecessors) plus b-level; and every partially free task's
// best queued entry carries exactly that priority, with no entry of it
// above.
func TestStaticLevelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(40)
		g := schedtest.RandomDAG(rng, n, 0.1+0.4*rng.Float64())
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		scratch := arena.Get()
		s, err := newState(g, scratch)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refState{g: g, csr: s.csr, cluster: s.cluster, st: s.st, nsched: s.nsched, level: make([]int64, n)}
		for step := 0; step < n; step++ {
			s.step()
			ref.recomputeLevels(order)
			freeSeen := make(map[dag.NodeID]int)
			for i, v := range s.freeQ.task {
				freeSeen[v]++
				if !ref.isFree(v) {
					t.Fatalf("trial %d step %d: queued task %d is not free", trial, step, v)
				}
				if want := ref.startBound(v) + s.level[v]; s.freeQ.prio[i] != want {
					t.Fatalf("trial %d step %d: free task %d queued at %d, want %d", trial, step, v, s.freeQ.prio[i], want)
				}
			}
			best := make(map[dag.NodeID]int64)
			for i, v := range s.partQ.task {
				if !ref.isPartialFree(v) {
					continue // stale: the task is free or placed by now
				}
				if p, ok := best[v]; !ok || s.partQ.prio[i] > p {
					best[v] = s.partQ.prio[i]
				}
			}
			for i := 0; i < n; i++ {
				v := dag.NodeID(i)
				if s.cluster[v] != -1 {
					continue
				}
				succs, _ := s.csr.Succs(v)
				for _, to := range succs {
					if s.cluster[to] != -1 {
						t.Fatalf("trial %d step %d: successor %d of unplaced %d is placed", trial, step, to, v)
					}
				}
				if ref.level[v] != s.level[v] {
					t.Fatalf("trial %d step %d: unplaced %d has level %d, b-level %d", trial, step, v, ref.level[v], s.level[v])
				}
				want := ref.startBound(v) + s.level[v]
				switch {
				case ref.isFree(v) && freeSeen[v] != 1:
					t.Fatalf("trial %d step %d: free task %d queued %d times", trial, step, v, freeSeen[v])
				case ref.isPartialFree(v) && best[v] != want:
					t.Fatalf("trial %d step %d: partially free %d best entry %d, want %d", trial, step, v, best[v], want)
				}
			}
		}
		scratch.Release()
	}
}
