package serve

import (
	"context"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
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

// ScheduleCached is Schedule with cache semantics: the returned status
// reports whether the schedule came from the cache (CacheNone when the
// pipeline has no cache; then it behaves exactly like Schedule).
func (p *Pipeline) ScheduleCached(ctx context.Context, s heuristics.Scheduler, g *dag.Graph) (*sched.Schedule, CacheStatus, error) {
	if p.cache == nil {
		sc, err := p.Schedule(ctx, s, g)
		return sc, CacheNone, err
	}
	return p.scheduleCached(ctx, s, g, false)
}

// scheduleCached resolves one request through the cache; blocking
// selects the batch (blocking) or single (shedding) admission path for
// the miss computation.
func (p *Pipeline) scheduleCached(ctx context.Context, s heuristics.Scheduler, g *dag.Graph, blocking bool) (*sched.Schedule, CacheStatus, error) {
	key := schedcache.Key{
		Fingerprint: g.CanonicalHash(),
		Heuristic:   s.Name(),
		// NProcs 0: the serving layer always lets the heuristic choose
		// the processor count today; the key dimension is reserved.
	}
	enc := g.CanonicalEncoding()
	canonical, st, err := p.cache.Do(ctx, key, enc, func(ctx context.Context) (*sched.Schedule, error) {
		return p.run(ctx, s, g.CanonicalClone(), blocking)
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	return remapSchedule(canonical, g), cacheStatus(st), nil
}

// run pushes one graph through the worker pool using the requested
// admission discipline and waits for its result.
func (p *Pipeline) run(ctx context.Context, s heuristics.Scheduler, g *dag.Graph, blocking bool) (*sched.Schedule, error) {
	if !blocking {
		return p.Schedule(ctx, s, g)
	}
	done := make(chan Result, 1)
	p.submitted.Inc()
	t := task{ctx: ctx, s: s, g: g, enq: time.Now(), done: done}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.shed.Inc()
		return nil, ErrClosed
	}
	select { //lint:lockheld same blocking-admission contract as submit
	case p.queue <- t:
		p.admitted.Inc()
		p.depth.Add(1)
		p.mu.RUnlock()
	case <-ctx.Done():
		p.shed.Inc()
		p.mu.RUnlock()
		return nil, ctx.Err()
	}
	select {
	case r := <-done:
		return r.Schedule, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
