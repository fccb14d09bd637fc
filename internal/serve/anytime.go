package serve

import (
	"context"
	"fmt"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
)

// QualityBest is the cache-key "heuristic" dimension used for the
// anytime quality tier. It cannot collide with a registered heuristic
// name: registry names never contain ':'.
const QualityBest = "quality:best"

// qualityMeta is the provenance stored beside a cached quality-tier
// schedule, so a hit keeps its certified gap instead of degrading to
// an uncertified answer. Immutable once stored (shared across
// callers, like the schedule itself).
type qualityMeta struct {
	lowerBound   int64
	proven       bool
	generations  int
	improvements int
	probeStates  int64
	seedName     string
	elapsed      time.Duration
}

// ScheduleBest runs the anytime quality tier on g: a GA over the full
// heuristic portfolio interleaved with a branch-and-bound probe, under
// the given refinement budget (DefaultBudget when <= 0). Admission
// follows the single-request discipline — non-blocking, a full queue
// sheds with ErrQueueFull — and the request context bounds the whole
// call, so a context deadline shorter than the budget wins.
//
// With a cache configured, results are keyed by canonical graph
// content under the QualityBest dimension (budget is deliberately not
// part of the key: a refined schedule with a proven gap is valid for
// any budget, and reusing it is the point of caching). Hits rebuild
// the full Result — bound, gap, provenance — from the stored metadata;
// Elapsed then reports the original computation's refinement time.
func (p *Pipeline) ScheduleBest(ctx context.Context, g *dag.Graph, budget time.Duration) (*anytime.Result, CacheStatus, error) {
	if budget <= 0 {
		budget = anytime.DefaultBudget
	}
	if p.cache == nil {
		res, err := p.runBest(ctx, g, budget)
		return res, CacheNone, err
	}
	key := schedcache.Key{
		Fingerprint: g.CanonicalHash(),
		Heuristic:   QualityBest,
	}
	enc := g.CanonicalEncoding()
	canonical, meta, st, err := p.cache.DoMeta(ctx, key, enc, func(ctx context.Context) (*sched.Schedule, any, error) {
		res, err := p.runBest(ctx, g.CanonicalClone(), budget)
		if err != nil {
			return nil, nil, err
		}
		return res.Schedule, qualityMeta{
			lowerBound:   res.LowerBound,
			proven:       res.Proven,
			generations:  res.Generations,
			improvements: res.Improvements,
			probeStates:  res.ProbeStates,
			seedName:     res.SeedName,
			elapsed:      res.Elapsed,
		}, nil
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	qm, ok := meta.(qualityMeta)
	if !ok {
		// Unreachable unless another writer stored a foreign meta under
		// the QualityBest dimension; fail loudly rather than fabricate
		// an unproven bound.
		return nil, CacheMiss, fmt.Errorf("serve: quality cache entry has unexpected metadata %T", meta)
	}
	sc := remapSchedule(canonical, g)
	return &anytime.Result{
		Schedule:     sc,
		LowerBound:   qm.lowerBound,
		Gap:          sc.Makespan - qm.lowerBound,
		Proven:       qm.proven,
		Generations:  qm.generations,
		Improvements: qm.improvements,
		SeedName:     qm.seedName,
		ProbeStates:  qm.probeStates,
		Elapsed:      qm.elapsed,
	}, cacheStatus(st), nil
}

// runBest pushes one quality-tier request through the worker pool with
// the non-blocking (shedding) admission discipline and waits for its
// result.
func (p *Pipeline) runBest(ctx context.Context, g *dag.Graph, budget time.Duration) (*anytime.Result, error) {
	p.submitted.Inc()
	done := make(chan Result, 1)
	t := task{ctx: ctx, g: g, quality: true, budget: budget, enq: time.Now(), done: done}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case p.queue <- t:
		p.mu.RUnlock()
		p.admitted.Inc()
		p.depth.Add(1)
	default:
		p.mu.RUnlock()
		p.shed.Inc()
		return nil, ErrQueueFull
	}

	select {
	case r := <-done:
		return r.Best, r.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
