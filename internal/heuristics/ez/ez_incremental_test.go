package ez

import (
	"math/rand"
	"sort"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
	"schedcomp/internal/sched"
)

// fullRescanEZ is EZ with the estimator it had before the incremental
// one: every trial merge rebuilds a placement and replays the full
// timing model through sched.Build and Validate. It is the oracle the
// incremental estimator is held to.
type fullRescanEZ struct {
	estLog *[]int64
}

func newFullRescan() *fullRescanEZ { return &fullRescanEZ{} }

func (e *fullRescanEZ) Name() string { return "EZ" }

// find resolves x's cluster root with path compression local to p.
func find(p []int, x int) int {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (e *fullRescanEZ) Schedule(g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	clusters := make([]int, n)
	for i := range clusters {
		clusters[i] = i
	}

	current, err := estimate(g, level, clusters)
	if err != nil {
		return nil, err
	}
	if e.estLog != nil {
		*e.estLog = append(*e.estLog, current)
	}
	for _, edge := range sortedEdges(g) {
		ra, rb := find(clusters, int(edge.From)), find(clusters, int(edge.To))
		if ra == rb {
			continue // already zeroed transitively
		}
		// Trial merge on a copy: undoing a union under path
		// compression is error-prone, cloning is cheap at these sizes.
		trial := append([]int(nil), clusters...)
		trial[ra] = rb
		merged, err := estimate(g, level, trial)
		if err != nil {
			return nil, err
		}
		if e.estLog != nil {
			*e.estLog = append(*e.estLog, merged)
		}
		if merged <= current {
			current = merged
			clusters = trial
		}
	}
	return fullPlacement(g, level, clusters), nil
}

// fullPlacement lays each cluster on its own processor, ordered by
// descending level (ties to the smaller ID).
func fullPlacement(g *dag.Graph, level []int64, clusters []int) *sched.Placement {
	n := g.NumNodes()
	byRoot := map[int][]dag.NodeID{}
	var roots []int
	for v := 0; v < n; v++ {
		r := find(clusters, v)
		if len(byRoot[r]) == 0 {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], dag.NodeID(v))
	}
	sort.Ints(roots)
	pl := sched.NewPlacement(n)
	for pi, r := range roots {
		members := byRoot[r]
		sort.Slice(members, func(i, j int) bool {
			if level[members[i]] != level[members[j]] {
				return level[members[i]] > level[members[j]]
			}
			return members[i] < members[j]
		})
		for _, v := range members {
			pl.Assign(v, pi)
		}
	}
	return pl
}

// estimate returns the parallel time of the clustering (full rescan).
func estimate(g *dag.Graph, level []int64, clusters []int) (int64, error) {
	s, err := sched.Build(g, fullPlacement(g, level, clusters))
	if err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// estimator is EZ or its full-rescan oracle, with its estimate log.
type estimator interface {
	heuristics.Scheduler
	logTo(*[]int64)
}

func (e *EZ) logTo(log *[]int64)           { e.estLog = log }
func (e *fullRescanEZ) logTo(log *[]int64) { e.estLog = log }

// runLogged schedules g with e and returns the estimate log (initial
// estimate followed by every examined edge's trial estimate) and the
// placement.
func runLogged(t *testing.T, e estimator, g *dag.Graph) ([]int64, *sched.Placement) {
	t.Helper()
	var log []int64
	e.logTo(&log)
	pl, err := e.Schedule(g)
	if err != nil {
		t.Fatalf("%T schedule: %v", e, err)
	}
	return log, pl
}

func samePlacement(a, b *sched.Placement) bool {
	if len(a.Proc) != len(b.Proc) || len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] {
			return false
		}
	}
	for p := range a.Order {
		if len(a.Order[p]) != len(b.Order[p]) {
			return false
		}
		for i := range a.Order[p] {
			if a.Order[p][i] != b.Order[p][i] {
				return false
			}
		}
	}
	return true
}

// TestIncrementalMatchesFullRescan is the estimator oracle: on random
// graphs the incremental retimer must report the identical parallel
// time for the identical trial sequence — every estimate, not just the
// final one, since a single divergent estimate flips a merge decision
// and changes the schedule — and land on the identical placement.
func TestIncrementalMatchesFullRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(40)
		g := schedtest.RandomDAG(rng, n, 0.05+0.45*rng.Float64())
		fastLog, fastPl := runLogged(t, New(), g)
		slowLog, slowPl := runLogged(t, newFullRescan(), g)
		if len(fastLog) != len(slowLog) {
			t.Fatalf("trial %d (n=%d): %d incremental estimates, %d full-rescan",
				trial, n, len(fastLog), len(slowLog))
		}
		for i := range fastLog {
			if fastLog[i] != slowLog[i] {
				t.Fatalf("trial %d (n=%d): estimate %d of %d diverges: incremental %d, full-rescan %d",
					trial, n, i, len(fastLog), fastLog[i], slowLog[i])
			}
		}
		if !samePlacement(fastPl, slowPl) {
			t.Fatalf("trial %d (n=%d): placements diverge", trial, n)
		}
	}
}

// TestIncrementalMatchesFullRescanZeroComm forces zero-weight edges
// (free communication everywhere): every merge trial then estimates
// the same time and the tie-breaking path (merge kept on equality) is
// exercised on every edge.
func TestIncrementalMatchesFullRescanZeroComm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		g := dag.New("zero-comm")
		var nodes []dag.NodeID
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.AddNode(int64(1+rng.Intn(9))))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(nodes[i], nodes[j], 0)
				}
			}
		}
		fastLog, fastPl := runLogged(t, New(), g)
		slowLog, slowPl := runLogged(t, newFullRescan(), g)
		for i := range fastLog {
			if fastLog[i] != slowLog[i] {
				t.Fatalf("trial %d: estimate %d diverges: incremental %d, full-rescan %d",
					trial, i, fastLog[i], slowLog[i])
			}
		}
		if !samePlacement(fastPl, slowPl) {
			t.Fatalf("trial %d: placements diverge", trial)
		}
	}
}

// TestFullRescanPaperExample pins the retained oracle itself to the
// hand-traced golden value, so the oracle cannot silently drift.
func TestFullRescanPaperExample(t *testing.T) {
	sc := schedtest.BuildAndValidate(t, newFullRescan(), paperex.Graph())
	if sc.Makespan != 135 {
		t.Errorf("makespan = %d, want 135", sc.Makespan)
	}
}
