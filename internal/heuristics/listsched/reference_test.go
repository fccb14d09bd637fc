package listsched_test

import (
	"schedcomp/internal/dag"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
	"schedcomp/internal/topology"
)

// The references below are ETF, DLS, HU and MH as they read before the
// kernel, kept as test oracles: each scans every candidate processor of
// every candidate task at every step, with its own ready list, arrival
// loop and processor free times.

// etfReference commits, at every step, the (ready task, processor) pair
// with the globally earliest start, ties to the higher b-level, then
// the lower ID, then the lower processor.
func etfReference(g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	missing := make([]int, n)
	ready := make([]dag.NodeID, 0, n)
	for v := 0; v < n; v++ {
		missing[v] = g.InDegree(dag.NodeID(v))
		if missing[v] == 0 {
			ready = append(ready, dag.NodeID(v))
		}
	}
	proc := make([]int, n)
	finish := make([]int64, n)
	var procFree []int64

	for len(ready) > 0 {
		bestI, bestP := -1, -1
		var bestStart int64
		cand := len(procFree) + 1
		for ri, v := range ready {
			for p := 0; p < cand; p++ {
				var start int64
				if p < len(procFree) {
					start = procFree[p]
				}
				for _, a := range g.Preds(v) {
					t := finish[a.To]
					if proc[a.To] != p {
						t += a.Weight
					}
					if t > start {
						start = t
					}
				}
				better := bestI == -1 || start < bestStart
				if !better && start == bestStart && ri != bestI {
					prev := ready[bestI]
					if level[v] != level[prev] {
						better = level[v] > level[prev]
					} else {
						better = v < prev
					}
				}
				if better {
					bestI, bestP, bestStart = ri, p, start
				}
			}
		}
		v := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		if bestP == len(procFree) {
			procFree = append(procFree, 0)
		}
		proc[v] = bestP
		finish[v] = bestStart + g.Weight(v)
		procFree[bestP] = finish[v]
		pl.Assign(v, bestP)
		for _, a := range g.Succs(v) {
			missing[a.To]--
			if missing[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return pl, nil
}

// dlsReference commits, at every step, the (ready task, processor) pair
// with the greatest dynamic level b-level − start, ties to the lower
// ID, then the lower processor.
func dlsReference(g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	missing := make([]int, n)
	ready := make([]dag.NodeID, 0, n)
	for v := 0; v < n; v++ {
		missing[v] = g.InDegree(dag.NodeID(v))
		if missing[v] == 0 {
			ready = append(ready, dag.NodeID(v))
		}
	}
	proc := make([]int, n)
	finish := make([]int64, n)
	var procFree []int64

	for len(ready) > 0 {
		bestI, bestP := -1, -1
		var bestDL, bestStart int64
		cand := len(procFree) + 1
		for ri, v := range ready {
			for p := 0; p < cand; p++ {
				var start int64
				if p < len(procFree) {
					start = procFree[p]
				}
				for _, a := range g.Preds(v) {
					t := finish[a.To]
					if proc[a.To] != p {
						t += a.Weight
					}
					if t > start {
						start = t
					}
				}
				dl := level[v] - start
				better := bestI == -1 || dl > bestDL
				if !better && dl == bestDL && ri != bestI {
					prev := ready[bestI]
					if v != prev {
						better = v < prev
					}
				}
				if better {
					bestI, bestP, bestDL, bestStart = ri, p, dl, start
				}
			}
		}
		v := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		if bestP == len(procFree) {
			procFree = append(procFree, 0)
		}
		proc[v] = bestP
		finish[v] = bestStart + g.Weight(v)
		procFree[bestP] = finish[v]
		pl.Assign(v, bestP)
		for _, a := range g.Succs(v) {
			missing[a.To]--
			if missing[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return pl, nil
}

// huReference places tasks in b-level order, the first on processor 0
// and every other one on the processor that is available earliest
// (earliestStart false) or on which it starts earliest (true).
func huReference(g *dag.Graph, earliestStart bool) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	higher := func(a, b dag.NodeID) bool {
		if level[a] != level[b] {
			return level[a] > level[b]
		}
		return a < b
	}
	free := pq.New(higher)
	for _, v := range g.Sources() {
		free.Push(v)
	}

	proc := make([]int, n)
	finish := make([]int64, n)
	scheduledPreds := make([]int, n)
	var procFree []int64

	arrive := func(v dag.NodeID, p int) int64 {
		var t int64
		for _, a := range g.Preds(v) {
			at := finish[a.To]
			if proc[a.To] != p {
				at += a.Weight
			}
			if at > t {
				t = at
			}
		}
		return t
	}

	place := func(v dag.NodeID, p int) {
		if p == len(procFree) {
			procFree = append(procFree, 0)
		}
		start := arrive(v, p)
		if procFree[p] > start {
			start = procFree[p]
		}
		proc[v] = p
		finish[v] = start + g.Weight(v)
		procFree[p] = finish[v]
		pl.Assign(v, p)
		for _, a := range g.Succs(v) {
			scheduledPreds[a.To]++
			if scheduledPreds[a.To] == g.InDegree(a.To) {
				free.Push(a.To)
			}
		}
	}

	pick := func(v dag.NodeID) int {
		candidates := len(procFree) + 1
		bestP := -1
		var bestKey int64
		for p := 0; p < candidates; p++ {
			var idle int64
			if p < len(procFree) {
				idle = procFree[p]
			}
			key := idle
			if earliestStart {
				key = max(arrive(v, p), idle)
			}
			if bestP == -1 || key < bestKey {
				bestP, bestKey = p, key
			}
		}
		return bestP
	}

	place(free.Pop(), 0)
	for !free.Empty() {
		v := free.Pop()
		place(v, pick(v))
	}
	return pl, nil
}

type mhEvent struct {
	finish int64
	node   dag.NodeID
}

// mhReference allocates every free task in b-level order to the
// processor of net (nil: unbounded, fully connected) on which it starts
// earliest, then replays completions from an event list to free the
// successors. With contention, messages reserve the links they cross.
func mhReference(g *dag.Graph, net *topology.Network, contention bool) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	if net == nil {
		net = topology.FullyConnected(0)
	}
	var traffic *topology.Traffic
	if contention {
		traffic = topology.NewTraffic(net)
	}

	higher := func(a, b dag.NodeID) bool {
		if level[a] != level[b] {
			return level[a] > level[b]
		}
		return a < b
	}
	free := pq.New(higher)
	for _, v := range g.Sources() {
		free.Push(v)
	}
	events := pq.New(func(a, b mhEvent) bool {
		if a.finish != b.finish {
			return a.finish < b.finish
		}
		return a.node < b.node
	})

	proc := make([]int, n)
	finish := make([]int64, n)
	scheduledPreds := make([]int, n)
	done := make([]bool, n)
	var procFree []int64
	usedProcs := 0

	maxProcs := net.NumProcs()
	if net.Unbounded() {
		maxProcs = 0
	}

	arrive := func(v dag.NodeID, p int) int64 {
		var t int64
		for _, a := range g.Preds(v) {
			at := finish[a.To]
			if proc[a.To] != p {
				if traffic != nil {
					at = traffic.Peek(proc[a.To], p, at, a.Weight)
				} else {
					at += net.Delay(proc[a.To], p, a.Weight)
				}
			}
			if at > t {
				t = at
			}
		}
		return t
	}

	allocate := func(v dag.NodeID) {
		candidates := usedProcs
		if maxProcs == 0 || candidates < maxProcs {
			candidates++
		}
		bestP, bestStart := -1, int64(0)
		for p := 0; p < candidates; p++ {
			start := arrive(v, p)
			if p < len(procFree) && procFree[p] > start {
				start = procFree[p]
			}
			if bestP == -1 || start < bestStart {
				bestP, bestStart = p, start
			}
		}
		if bestP >= usedProcs {
			usedProcs = bestP + 1
			for len(procFree) < usedProcs {
				procFree = append(procFree, 0)
			}
		}
		if traffic != nil {
			for _, a := range g.Preds(v) {
				if proc[a.To] != bestP {
					traffic.Send(proc[a.To], bestP, finish[a.To], a.Weight)
				}
			}
		}
		proc[v] = bestP
		finish[v] = bestStart + g.Weight(v)
		procFree[bestP] = finish[v]
		done[v] = true
		pl.Assign(v, bestP)
		events.Push(mhEvent{finish: finish[v], node: v})
	}

	scheduled := 0
	for scheduled < n {
		for !free.Empty() {
			allocate(free.Pop())
			scheduled++
		}
		if scheduled == n {
			break
		}
		e := events.Pop()
		for _, a := range g.Succs(e.node) {
			scheduledPreds[a.To]++
			if !done[a.To] && scheduledPreds[a.To] == g.InDegree(a.To) {
				free.Push(a.To)
			}
		}
	}
	return pl, nil
}
