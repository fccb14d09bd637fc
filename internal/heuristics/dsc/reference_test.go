package dsc

import (
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// referenceSchedule is DSC as the paper's pseudocode states it, kept
// as the test oracle: every step recomputes every level over the
// current clusters (zeroed edges included) and rescans every node for
// the top free and the top partially free task, each startbound read
// afresh from the placed predecessors.
func referenceSchedule(g *dag.Graph) (*sched.Placement, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := &refState{
		g:       g,
		csr:     g.CSR(),
		cluster: make([]int, n),
		st:      make([]int64, n),
		nsched:  make([]int, n),
		level:   make([]int64, n),
	}
	for i := range s.cluster {
		s.cluster[i] = -1
	}
	for scheduled := 0; scheduled < n; scheduled++ {
		s.recomputeLevels(order)
		nx := s.topFree()
		ny := s.topPartialFree()

		target := -1 // cluster to merge nx into; -1 = new cluster
		if ny < 0 || s.priority(nx) > s.priority(ny) {
			if c, ok := s.bestParentCluster(nx); ok && s.startOn(c, nx) <= s.startBound(nx) {
				target = c // CT1 holds
			}
		} else {
			if c, ok := s.bestParentCluster(nx); ok &&
				s.startOn(c, nx) <= s.startBound(nx) && s.ct2(c, nx, ny) {
				target = c
			}
		}
		s.place(nx, target)
	}
	pl := sched.NewPlacement(n)
	for c, ms := range s.members {
		for _, v := range ms {
			pl.Assign(v, c)
		}
	}
	return pl, nil
}

type refState struct {
	g       *dag.Graph
	csr     *dag.CSR
	cluster []int          // node -> cluster, -1 unscheduled
	members [][]dag.NodeID // cluster -> ordered tasks
	free    []int64        // cluster -> time it becomes free
	st      []int64        // node -> scheduled start time
	nsched  []int          // node -> count of scheduled predecessors
	level   []int64        // levels with zeroed edges, refreshed per step
}

// recomputeLevels refreshes level(n) = longest remaining path including
// communication, where edges internal to a cluster are zeroed.
func (s *refState) recomputeLevels(order []dag.NodeID) {
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var best int64
		succs, ws := s.csr.Succs(v)
		for j, to := range succs {
			w := ws[j]
			if s.cluster[v] != -1 && s.cluster[v] == s.cluster[to] {
				w = 0
			}
			if c := s.level[to] + w; c > best {
				best = c
			}
		}
		s.level[v] = s.g.Weight(v) + best
	}
}

func (s *refState) isFree(v dag.NodeID) bool {
	return s.cluster[v] == -1 && s.nsched[v] == s.csr.InDegree(v)
}

func (s *refState) isPartialFree(v dag.NodeID) bool {
	return s.cluster[v] == -1 && s.nsched[v] > 0 && s.nsched[v] < s.csr.InDegree(v)
}

// startBound is the max arrival time over scheduled predecessors.
func (s *refState) startBound(v dag.NodeID) int64 {
	var b int64
	preds, ws := s.csr.Preds(v)
	for j, p := range preds {
		if s.cluster[p] == -1 {
			continue
		}
		if t := s.st[p] + s.g.Weight(p) + ws[j]; t > b {
			b = t
		}
	}
	return b
}

func (s *refState) priority(v dag.NodeID) int64 { return s.startBound(v) + s.level[v] }

// topFree returns the free node with the highest priority (ties to the
// lower ID).
func (s *refState) topFree() dag.NodeID {
	best := dag.NodeID(-1)
	var bp int64
	for i := 0; i < s.g.NumNodes(); i++ {
		v := dag.NodeID(i)
		if !s.isFree(v) {
			continue
		}
		if p := s.priority(v); best < 0 || p > bp {
			best, bp = v, p
		}
	}
	if best < 0 {
		panic("dsc reference: no free node in acyclic graph with unscheduled nodes")
	}
	return best
}

// topPartialFree returns the partially free node with the highest
// priority (ties to the lower ID), or -1 if none exists.
func (s *refState) topPartialFree() dag.NodeID {
	best := dag.NodeID(-1)
	var bp int64
	for i := 0; i < s.g.NumNodes(); i++ {
		v := dag.NodeID(i)
		if !s.isPartialFree(v) {
			continue
		}
		if p := s.priority(v); best < 0 || p > bp {
			best, bp = v, p
		}
	}
	return best
}

func (s *refState) startOn(c int, v dag.NodeID) int64 {
	t := s.free[c]
	preds, ws := s.csr.Preds(v)
	for j, p := range preds {
		if s.cluster[p] == -1 {
			continue
		}
		arrive := s.st[p] + s.g.Weight(p)
		if s.cluster[p] != c {
			arrive += ws[j]
		}
		if arrive > t {
			t = arrive
		}
	}
	return t
}

func (s *refState) bestParentCluster(v dag.NodeID) (int, bool) {
	best, ok := -1, false
	var bt int64
	seen := map[int]bool{}
	preds, _ := s.csr.Preds(v)
	for _, p := range preds {
		c := s.cluster[p]
		if c == -1 || seen[c] {
			continue
		}
		seen[c] = true
		t := s.startOn(c, v)
		if !ok || t < bt || (t == bt && c < best) {
			best, bt, ok = c, t, true
		}
	}
	return best, ok
}

func (s *refState) ct2(c int, nx, ny dag.NodeID) bool {
	bound := s.startBound(ny)
	newFreeC := s.startOn(c, nx) + s.g.Weight(nx)
	preds, _ := s.csr.Preds(ny)
	for _, p := range preds {
		ci := s.cluster[p]
		if ci == -1 {
			continue
		}
		st := s.startOn(ci, ny)
		if ci == c && newFreeC > st {
			st = newFreeC
		}
		if st > bound {
			return false
		}
	}
	return true
}

func (s *refState) place(v dag.NodeID, c int) {
	if c < 0 {
		c = len(s.members)
		s.members = append(s.members, nil)
		s.free = append(s.free, 0)
	}
	start := s.startOn(c, v)
	s.cluster[v] = c
	s.st[v] = start
	s.free[c] = start + s.g.Weight(v)
	s.members[c] = append(s.members[c], v)
	succs, _ := s.csr.Succs(v)
	for _, to := range succs {
		s.nsched[to]++
	}
}
