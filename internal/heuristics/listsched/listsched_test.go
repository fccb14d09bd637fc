package listsched_test

import (
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/dls"
	"schedcomp/internal/heuristics/etf"
	"schedcomp/internal/heuristics/hu"
	"schedcomp/internal/heuristics/mh"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/sched"
	"schedcomp/internal/topology"
)

// variant pairs a scheduler over the kernel with its reference.
type variant struct {
	name string
	s    heuristics.Scheduler
	ref  func(g *dag.Graph) (*sched.Placement, error)
}

// variants covers ETF, DLS, HU under both policies, and MH in the
// paper's configuration, on bounded networks, with a per-hop latency
// and with contention.
func variants() []variant {
	mhOn := func(name string, net *topology.Network, contention bool) variant {
		return variant{name, &mh.MH{Net: net, Contention: contention}, func(g *dag.Graph) (*sched.Placement, error) {
			return mhReference(g, net, contention)
		}}
	}
	latency := topology.Ring(4)
	latency.SetPerHopLatency(2)
	return []variant{
		{"ETF", etf.New(), etfReference},
		{"DLS", dls.New(), dlsReference},
		{"HU", hu.New(), func(g *dag.Graph) (*sched.Placement, error) { return huReference(g, false) }},
		{"HU EarliestStart", &hu.HU{Policy: hu.EarliestStart}, func(g *dag.Graph) (*sched.Placement, error) { return huReference(g, true) }},
		mhOn("MH", nil, false),
		mhOn("MH on FullyConnected(4)", topology.FullyConnected(4), false),
		mhOn("MH on Ring(4)", topology.Ring(4), false),
		mhOn("MH on Mesh(2,2)", topology.Mesh(2, 2), false),
		mhOn("MH on Ring(4) with per-hop latency 2", latency, false),
		mhOn("MH on Mesh(2,2) with contention", topology.Mesh(2, 2), true),
		mhOn("MH unbounded with contention", nil, true),
	}
}

// requireSamePlacements schedules g with every variant and its
// reference and fails on any divergence in processor or order.
func requireSamePlacements(t *testing.T, vs []variant, g *dag.Graph, label string) {
	t.Helper()
	for _, v := range vs {
		fast, err := v.s.Schedule(g)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, v.name, err)
		}
		slow, err := v.ref(g)
		if err != nil {
			t.Fatalf("%s: %s reference: %v", label, v.name, err)
		}
		if a, b := schedtest.PlacementString(fast), schedtest.PlacementString(slow); a != b {
			t.Fatalf("%s: %s and its full-scan reference diverge\n kernel:    %s\n reference: %s", label, v.name, a, b)
		}
	}
}

// TestMatchesReference holds the cached bests, Best's shortcut over
// processors hosting no predecessor, and the carved placement to the
// full scans, byte for byte.
func TestMatchesReference(t *testing.T) {
	vs := variants()
	for _, ng := range schedtest.ReferenceCorpus(t) {
		requireSamePlacements(t, vs, ng.Graph, ng.Label)
	}
}

// FuzzKernelReference holds ETF, DLS, HU and MH to their references on
// fuzz-built DAGs of up to 40 nodes.
func FuzzKernelReference(f *testing.F) {
	for _, seed := range schedtest.FuzzSeeds() {
		f.Add(seed)
	}
	vs := variants()
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSamePlacements(t, vs, schedtest.FuzzGraph(data), "fuzz graph")
	})
}

// TestChainIntoSinkIsLinear schedules a 50k-node chain whose every
// node also feeds one sink. All 50k of the sink's predecessors share
// one processor, so a Best that evaluated a predecessor's processor
// once per predecessor would take 50k² steps on the sink alone.
func TestChainIntoSinkIsLinear(t *testing.T) {
	const n = 50000
	g := dag.New("chain into sink")
	for v := 0; v <= n; v++ {
		g.AddNode(int64(1 + v%7))
	}
	sink := dag.NodeID(n)
	for v := dag.NodeID(0); v < sink; v++ {
		if v+1 < sink {
			g.MustAddEdge(v, v+1, 3)
		}
		g.MustAddEdge(v, sink, 5)
	}
	if _, err := g.BLevels(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []heuristics.Scheduler{etf.New(), dls.New(), mh.New()} {
		start := time.Now()
		pl, err := s.Schedule(g)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := pl.Check(g); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if bound := raceSlowdown * 500 * time.Millisecond; elapsed > bound {
			t.Errorf("%s took %v on a %d-node chain into one sink, bound %v", s.Name(), elapsed, n, bound)
		}
	}
}

// TestIndependentTasksAreQuadratic schedules 4000 independent tasks
// with ETF and DLS. Every commit opens a processor on which every other
// ready task is cached; recomputing each of them with a Best that scans
// the open processors would be cubic, about 6.6 s here.
func TestIndependentTasksAreQuadratic(t *testing.T) {
	const n = 4000
	g := dag.New("independent")
	for v := 0; v < n; v++ {
		g.AddNode(int64(1 + v%7))
	}
	if _, err := g.BLevels(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []heuristics.Scheduler{etf.New(), dls.New()} {
		start := time.Now()
		pl, err := s.Schedule(g)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := pl.Check(g); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if bound := raceSlowdown * 500 * time.Millisecond; elapsed > bound {
			t.Errorf("%s took %v on %d independent tasks, bound %v", s.Name(), elapsed, n, bound)
		}
	}
}
