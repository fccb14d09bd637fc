package clan

import (
	"slices"
	"sort"

	"schedcomp/internal/arena"
	"schedcomp/internal/bitset"
	"schedcomp/internal/dag"
)

// SubClans partitions the members of a primitive clan into proper
// sub-clans where possible (singletons otherwise). The paper notes the
// comparison used "the best version of CLANS ... the weaknesses of the
// first version were removed"; recovering composite structure inside
// primitive clans is exactly such a strengthening: the scheduler can
// then cost a primitive's quotient over a few coherent blocks instead
// of over individual tasks.
//
// Method: for every edge (u,v) inside the member set, compute the
// module closure of {u,v} — repeatedly absorbing any member that
// distinguishes two current elements by reachability — giving the
// smallest clan of the induced substructure containing the pair.
// Closures that are proper subsets become candidate blocks; blocks are
// chosen greedily from smallest to largest so the finest discovered
// grouping wins, and remaining members stay singletons. Every returned
// block is a genuine clan of the whole graph (clans of a clan are
// clans); the partition is not guaranteed to be the canonical modular
// decomposition, only a sound refinement usable by the cost model.
//
// The search is skipped (all-singleton result) for member sets larger
// than maxSubClanMembers, keeping the scheduler's worst case bounded.
func SubClans(g *dag.Graph, members []dag.NodeID) ([][]dag.NodeID, error) {
	if len(members) <= 2 || len(members) > maxSubClanMembers {
		return singletons(members), nil
	}
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	inSet := bitset.New(n)
	for _, m := range members {
		inSet.Add(int(m))
	}

	// Candidate blocks from module closures of adjacent pairs.
	var candidates []*bitset.Set
	seen := map[string]bool{}
	for _, u := range members {
		for _, a := range g.Succs(u) {
			v := a.To
			if !inSet.Contains(int(v)) {
				continue
			}
			m := moduleClosure(desc, inSet, members, u, v)
			if m.Count() >= len(members) || m.Count() < 2 {
				continue
			}
			key := m.String()
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, m)
			}
		}
	}
	if len(candidates) == 0 {
		return singletons(members), nil
	}
	// Smallest candidates first: prefer the finest grouping.
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].Count() < candidates[j].Count()
	})

	assigned := bitset.New(n)
	var blocks [][]dag.NodeID
	for _, c := range candidates {
		if c.Intersects(assigned) {
			continue
		}
		var blk []dag.NodeID
		c.ForEach(func(i int) { blk = append(blk, dag.NodeID(i)) })
		blocks = append(blocks, blk)
		assigned.Union(c)
	}
	for _, m := range members {
		if !assigned.Contains(int(m)) {
			blocks = append(blocks, []dag.NodeID{m})
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	return blocks, nil
}

// maxSubClanMembers bounds the closure search.
const maxSubClanMembers = 48

func singletons(members []dag.NodeID) [][]dag.NodeID {
	out := make([][]dag.NodeID, len(members))
	for i, m := range members {
		out[i] = []dag.NodeID{m}
	}
	return out
}

// moduleClosure grows {u,v} until no member outside the set
// distinguishes two elements of the set by reachability.
func moduleClosure(desc []*bitset.Set, inSet *bitset.Set, members []dag.NodeID, u, v dag.NodeID) *bitset.Set {
	n := inSet.Len()
	m := bitset.New(n)
	m.Add(int(u))
	m.Add(int(v))
	elems := []dag.NodeID{u, v}
	for changed := true; changed; {
		changed = false
		for _, zq := range members {
			z := int(zq)
			if m.Contains(z) {
				continue
			}
			// Does z distinguish any two elements?
			first := true
			var anc0, dsc0 bool
			distinguishes := false
			for _, x := range elems {
				anc := desc[z].Contains(int(x))
				dsc := desc[x].Contains(z)
				if first {
					anc0, dsc0, first = anc, dsc, false
					continue
				}
				if anc != anc0 || dsc != dsc0 {
					distinguishes = true
					break
				}
			}
			if distinguishes {
				m.Add(z)
				elems = append(elems, zq)
				changed = true
			}
		}
	}
	return m
}

// ParseMembers decomposes the induced substructure of a clan's member
// set, returning its parse subtree. members must form a clan of g
// (clans of a clan are clans of the graph, so global reachability is
// the correct internal relation).
func ParseMembers(g *dag.Graph, members []dag.NodeID) (*Node, error) {
	scratch := arena.Get()
	defer scratch.Release()
	p, err := newParser(g, scratch)
	if err != nil {
		return nil, err
	}
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	return p.decompose(sorted), nil
}
