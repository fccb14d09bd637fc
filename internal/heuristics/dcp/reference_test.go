package dcp

import (
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// slot is a scheduled interval on a reference processor timeline.
type slot struct {
	node   dag.NodeID
	start  int64
	finish int64
}

// referenceSchedule is DCP as it reads in Kwok & Ahmad's terms, kept
// as the test oracle: every step recomputes AEST forward and ALST
// backward over the whole partial schedule, and ranks the ready tasks
// and critical children by mobility ALST − AEST.
func referenceSchedule(g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	scheduled := make([]bool, n)
	proc := make([]int, n)
	start := make([]int64, n)
	finish := make([]int64, n)
	missing := make([]int, n)
	for v := 0; v < n; v++ {
		missing[v] = g.InDegree(dag.NodeID(v))
	}
	var timelines [][]slot

	aest := make([]int64, n)
	alst := make([]int64, n)

	recompute := func() {
		// AEST forward: scheduled tasks are pinned; unscheduled ones
		// assume full communication from every predecessor (their
		// processor is unknown).
		for _, v := range order {
			if scheduled[v] {
				aest[v] = start[v]
				continue
			}
			var e int64
			for _, a := range g.Preds(v) {
				p := a.To
				var t int64
				if scheduled[p] {
					t = finish[p] + a.Weight
				} else {
					t = aest[p] + g.Weight(p) + a.Weight
				}
				if t > e {
					e = t
				}
			}
			aest[v] = e
		}
		// Schedule-length bound, then ALST backward.
		var bound int64
		for v := 0; v < n; v++ {
			if c := aest[v] + g.Weight(dag.NodeID(v)); c > bound {
				bound = c
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if scheduled[v] {
				alst[v] = start[v]
				continue
			}
			l := bound - g.Weight(v)
			for _, a := range g.Succs(v) {
				s := a.To
				var t int64
				if scheduled[s] {
					t = start[s] - a.Weight - g.Weight(v)
				} else {
					t = alst[s] - a.Weight - g.Weight(v)
				}
				if t < l {
					l = t
				}
			}
			alst[v] = l
		}
	}

	earliestOn := func(v dag.NodeID, p int) int64 {
		var ready int64
		for _, a := range g.Preds(v) {
			t := finish[a.To]
			if proc[a.To] != p {
				t += a.Weight
			}
			if t > ready {
				ready = t
			}
		}
		// Gap insertion.
		w := g.Weight(v)
		cur := ready
		for _, s := range timelines[p] {
			if cur+w <= s.start {
				return cur
			}
			if s.finish > cur {
				cur = s.finish
			}
		}
		return cur
	}

	// criticalChild returns v's unscheduled successor with the least
	// mobility (the one the dynamic critical path runs through).
	criticalChild := func(v dag.NodeID) (dag.NodeID, int64, bool) {
		best := dag.NodeID(-1)
		var bestMob, edge int64
		for _, a := range g.Succs(v) {
			if scheduled[a.To] {
				continue
			}
			mob := alst[a.To] - aest[a.To]
			if best < 0 || mob < bestMob || (mob == bestMob && a.To < best) {
				best, bestMob, edge = a.To, mob, a.Weight
			}
		}
		return best, edge, best >= 0
	}

	for done := 0; done < n; done++ {
		recompute()
		// Ready task with minimal mobility; ties to smaller AEST, then
		// smaller ID.
		pick := dag.NodeID(-1)
		var pickMob int64
		for v := 0; v < n; v++ {
			if scheduled[v] || missing[v] != 0 {
				continue
			}
			mob := alst[v] - aest[v]
			node := dag.NodeID(v)
			better := pick < 0 || mob < pickMob ||
				(mob == pickMob && aest[node] < aest[pick]) ||
				(mob == pickMob && aest[node] == aest[pick] && node < pick)
			if better {
				pick, pickMob = node, mob
			}
		}

		// Processor choice: minimize start; among starts within the
		// critical child's edge weight of the best, prefer the
		// processor minimizing the child's estimated local start.
		cc, ccEdge, hasCC := criticalChild(pick)
		bestP, bestStart := -1, int64(0)
		var bestLook int64
		for p := 0; p <= len(timelines); p++ {
			var st int64
			if p < len(timelines) {
				st = earliestOn(pick, p)
			} else {
				// Fresh processor: pure data-ready time.
				for _, a := range g.Preds(pick) {
					if t := finish[a.To] + a.Weight; t > st {
						st = t
					}
				}
			}
			look := st + g.Weight(pick)
			if hasCC {
				// If the child follows on this processor the edge is
				// free; its other parents are approximated by AEST.
				childLocal := look
				if childAEST := aest[cc]; childAEST > childLocal {
					childLocal = childAEST
				}
				look = childLocal
				_ = ccEdge
			}
			better := bestP == -1 || st < bestStart ||
				(st == bestStart && look < bestLook)
			if p == len(timelines) && bestP != -1 && st >= bestStart {
				better = false // open a new processor only when strictly earlier
			}
			if better {
				bestP, bestStart, bestLook = p, st, look
			}
		}
		if bestP == len(timelines) {
			timelines = append(timelines, nil)
		}
		scheduled[pick] = true
		proc[pick] = bestP
		start[pick] = bestStart
		finish[pick] = bestStart + g.Weight(pick)
		tl := timelines[bestP]
		// Binary search for the insertion point by hand: a sort.Search
		// closure here would capture bestStart and allocate on every
		// scheduling step.
		i, hi := 0, len(tl)
		for i < hi {
			mid := int(uint(i+hi) >> 1)
			if tl[mid].start >= bestStart {
				hi = mid
			} else {
				i = mid + 1
			}
		}
		tl = append(tl, slot{})
		copy(tl[i+1:], tl[i:])
		tl[i] = slot{node: pick, start: bestStart, finish: finish[pick]}
		timelines[bestP] = tl
		for _, a := range g.Succs(pick) {
			missing[a.To]--
		}
	}

	for p, tl := range timelines {
		for _, s := range tl {
			pl.Assign(s.node, p)
		}
	}
	return pl, nil
}
