package clans

import (
	"schedcomp/internal/clan"
	"schedcomp/internal/dag"
)

// primitiveDeep is the strengthened primitive handler used when
// DeepPrimitives is set: it partitions the primitive clan's members
// into proper sub-clans (clan.SubClans), schedules each composite
// block through the ordinary bottom-up machinery, and then runs the
// earliest-start list scheduler over the *quotient* — blocks as
// macro-tasks with their fragment costs and the heaviest inter-block
// edge as communication (see lanes). This recovers clustering
// decisions the flat per-task scheduler cannot see, which is the kind
// of strengthening the paper alludes to when it says the comparison
// used "the best version of CLANS".
//
// It reports ok = false when no composite sub-clan exists (the flat
// handler is then used).
func (b *builder) primitiveDeep(n *clan.Node) (fragment, bool) {
	blocks, err := clan.SubClans(b.g, n.Members)
	if err != nil || len(blocks) <= 1 || len(blocks) == len(n.Members) {
		return fragment{}, false
	}

	frags := make([]fragment, len(blocks))
	composite := false
	for i, blk := range blocks {
		if len(blk) == 1 {
			frags[i] = fragment{lanes: [][]dag.NodeID{{blk[0]}}, cost: b.g.Weight(blk[0])}
			continue
		}
		sub, err := clan.ParseMembers(b.g, blk)
		if err != nil {
			return fragment{}, false
		}
		frags[i] = b.schedule(sub)
		if b.err != nil {
			// Cancelled mid-block: the fragment is empty and must not
			// be indexed; the caller's b.err check surfaces the error.
			return fragment{}, true
		}
		composite = true
	}
	if !composite {
		return fragment{}, false
	}

	// The quotient is a DAG: modules are convex.
	weight := make([]int64, len(blocks))
	for i, blk := range blocks {
		weight[i] = frags[i].cost
		for _, m := range blk {
			b.index[m] = int32(i + 1)
		}
	}
	laneBlocks, makespan := b.lanes(n.Members, weight)
	if b.err != nil {
		return fragment{}, true
	}

	// Materialize: concatenate block home lanes per quotient lane;
	// blocks' extra lanes become processors of their own.
	lanes := make([][]dag.NodeID, 0, len(laneBlocks))
	extra := make([][]dag.NodeID, 0, len(blocks))
	for _, lb := range laneBlocks {
		size := 0
		for _, blk := range lb {
			size += len(frags[blk].lanes[0])
		}
		lane := make([]dag.NodeID, 0, size)
		for _, blk := range lb {
			lane = append(lane, frags[blk].lanes[0]...)
			extra = append(extra, frags[blk].lanes[1:]...)
		}
		lanes = append(lanes, lane)
	}
	return b.orSerial(n.Members, fragment{lanes: append(lanes, extra...), cost: makespan}), true
}
