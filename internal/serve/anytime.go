package serve

import (
	"context"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
)

// QualityBest is the cache-key "heuristic" dimension used for the
// anytime quality tier. It cannot collide with a registered heuristic
// name: registry names never contain ':'.
const QualityBest = "quality:best"

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
	r := p.resolve(ctx, task{g: g, quality: true, budget: budget}, false)
	return r.Best, r.Cache, r.Err
}
