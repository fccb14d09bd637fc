package serve

import (
	"context"
	"fmt"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
)

// Cached scheduling. With a cache configured, every request is first
// resolved to its canonical content key; a hit returns immediately —
// no admission, no queue, no shedding — and a miss schedules the
// CANONICAL CLONE of the graph through the normal pipeline path, then
// stores the canonical-space schedule, detached from the clone.
//
// Scheduling the clone rather than the submitted graph is what makes
// the cache's consistency contract hold across relabelings: a
// heuristic's tie-breaks depend on node numbering, so two isomorphic
// graphs scheduled directly could legitimately get different (equally
// valid) schedules. The canonical clone is the same byte-for-byte
// graph for every member of the isomorphism class, so the computed
// schedule is too, and each requester only differs in the final
// remapping through its own canonical permutation.

// resolve is the only cache path. Without a cache it is run. With
// one, t is keyed by its graph's canonical content and its heuristic
// (QualityBest for the quality tier); a miss schedules the canonical
// clone through run with the given admission discipline, and every
// answer is remapped into t.g's numbering. Quality provenance is
// stored as an anytime.Result with a nil Schedule; the caller's copy
// gets the remapped schedule and its gap.
func (p *Pipeline) resolve(ctx context.Context, t task, blocking bool) Result {
	if p.cache == nil {
		return p.run(ctx, t, blocking)
	}
	g := t.g
	key := schedcache.Key{Fingerprint: g.CanonicalHash(), Heuristic: QualityBest}
	if !t.quality {
		key.Heuristic = t.s.Name()
	}
	canonical, meta, st, err := p.cache.DoMeta(ctx, key, g.CanonicalEncoding(), func(ctx context.Context) (*sched.Schedule, any, error) {
		t.g = g.CanonicalClone()
		r := p.run(ctx, t, blocking)
		if r.Err != nil || r.Best == nil {
			return r.Schedule, nil, r.Err
		}
		prov := *r.Best
		prov.Schedule = nil
		return r.Schedule, prov, nil
	})
	if err != nil {
		return Result{Index: t.index, Cache: CacheMiss, Err: err}
	}
	r := Result{Index: t.index, Schedule: remapSchedule(canonical, g), Cache: cacheStatus(st)}
	if t.quality {
		prov, ok := meta.(anytime.Result)
		if !ok {
			// Unreachable unless another writer stored a foreign meta
			// under the QualityBest dimension; fail loudly rather than
			// fabricate an unproven bound.
			return Result{Index: t.index, Cache: CacheMiss,
				Err: fmt.Errorf("serve: quality cache entry has unexpected metadata %T", meta)}
		}
		prov.Schedule, prov.Gap = r.Schedule, r.Schedule.Makespan-prov.LowerBound
		r.Best = &prov
	}
	return r
}

// remapSchedule translates a canonical-space schedule back into the
// requesting graph's node numbering and binds it to g: cached schedules
// are detached (Graph nil), so this is where a hit regains a graph.
// Placement, timing and processor count are preserved exactly — node v
// of g executes where and when its canonical image perm[v] does — so
// the remapped schedule validates against g whenever the canonical one
// validates against the clone.
func remapSchedule(canonical *sched.Schedule, g *dag.Graph) *sched.Schedule {
	perm := g.CanonicalPerm()
	byNode := make([]sched.Assignment, len(canonical.ByNode))
	for v := range byNode {
		a := canonical.ByNode[perm[v]]
		byNode[v] = sched.Assignment{
			Node:   dag.NodeID(v),
			Proc:   a.Proc,
			Start:  a.Start,
			Finish: a.Finish,
		}
	}
	return &sched.Schedule{
		Graph:    g,
		ByNode:   byNode,
		NumProcs: canonical.NumProcs,
		Makespan: canonical.Makespan,
	}
}
