package main

import (
	"errors"
	"fmt"
	"net/url"
	"time"

	"schedcomp/internal/anytime"
)

// Quality-tier request parsing. /schedule grows two query parameters:
//
//	?quality=best            select the anytime optimizer
//	?budget=50ms             refinement allowance (default 50ms)
//
// The rules are strict so a malformed request can never silently fall
// back to a different tier than the client asked for:
//
//   - quality accepts exactly "best";
//   - budget is meaningless without quality=best and is rejected;
//   - budget must be a positive Go duration no longer than the
//     server's own request deadline (a budget the deadline would cut
//     short is a client error, not a quietly truncated run);
//   - quality=best with an explicit ?heuristic= is contradictory (the
//     quality tier runs the whole portfolio) and is rejected.
type qualityParams struct {
	enabled bool
	budget  time.Duration
}

// maxQualityBudget caps ?budget= when the server runs without a
// request timeout; no sane interactive refinement runs longer.
const maxQualityBudget = 10 * time.Second

// parseQuality validates the quality/budget query parameters.
// maxBudget is the server's request deadline (0 means none; the
// static cap applies instead). The zero qualityParams means "plain
// tier".
func parseQuality(q url.Values, maxBudget time.Duration) (qualityParams, error) {
	if maxBudget <= 0 {
		maxBudget = maxQualityBudget
	}
	quality := q.Get("quality")
	budgetStr := q.Get("budget")
	if quality == "" {
		if _, has := q["quality"]; has {
			return qualityParams{}, errors.New("empty quality parameter (did you mean quality=best?)")
		}
		if budgetStr != "" || len(q["budget"]) > 0 {
			return qualityParams{}, errors.New("budget requires quality=best")
		}
		return qualityParams{}, nil
	}
	if quality != "best" {
		return qualityParams{}, fmt.Errorf("unknown quality %q (only \"best\" is supported)", quality)
	}
	p := qualityParams{enabled: true, budget: anytime.DefaultBudget}
	if len(q["budget"]) > 0 {
		b, err := time.ParseDuration(budgetStr)
		if err != nil {
			return qualityParams{}, fmt.Errorf("bad budget %q: %v", budgetStr, err)
		}
		if b <= 0 {
			return qualityParams{}, fmt.Errorf("budget %v must be positive", b)
		}
		p.budget = b
	}
	if p.budget > maxBudget {
		return qualityParams{}, fmt.Errorf("budget %v exceeds the request deadline %v", p.budget, maxBudget)
	}
	return p, nil
}
