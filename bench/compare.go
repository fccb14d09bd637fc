package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Comparing two commits. Each side is a directory of result files from
// runs of one commit, made in alternating pairs with the other. Runs
// are paired in seed order. For each end-to-end metric of each workload
// a change is
//
//   - improved when it wins at least nine tenths of the pairs and its
//     median is better than the parent's by more than the parent's
//     interquartile range;
//   - regressed when its median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved when the parent's own spread (interquartile range over
//     median) is wider than the bound, unless every run of one side
//     reads better than every run of the other;
//   - unchanged otherwise.
//
// Per-layer metrics of traced runs are judged by the same gain rule but
// never regress: they have no bound and only explain where a change in
// an end-to-end metric came from.

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	worsened   = "worsened"
)

// judgement is one (workload, metric) row of a comparison.
type judgement struct {
	parent, change [3]float64 // quartiles
	won, pairs     int
	verdict        string
}

// judge compares one metric's runs; parent[i] pairs with change[i].
// endToEnd selects the regression rule; per-layer metrics report a
// worse median as worsened instead.
func judge(d metricDef, parent, change []float64, endToEnd bool) judgement {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var j judgement
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	j.pairs = min(len(parent), len(change))
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.won++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	mp, mc := j.parent[1], j.change[1]
	iqr := j.parent[2] - j.parent[0]
	worseBy := (mc - mp) / math.Abs(mp)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	gain := j.won*10 >= 9*j.pairs && j.pairs > 0 && better(mc, mp) && math.Abs(mc-mp) > iqr
	switch {
	case !endToEnd && gain:
		j.verdict = improved
	case !endToEnd && better(mp, mc) && math.Abs(mc-mp) > iqr:
		j.verdict = worsened
	case !endToEnd:
		j.verdict = unchanged
	case gain && (allBetter || iqr <= d.Bound*math.Abs(mp)):
		j.verdict = improved
	case worseBy > d.Bound && (allWorse || iqr <= d.Bound*math.Abs(mp)):
		j.verdict = regressed
	case iqr > d.Bound*math.Abs(mp):
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

// loadResults reads every result file in dir, by workload and trace
// mode, each list in seed order.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s t%d", r.Workload, b2i(r.Trace))
		out[key] = append(out[key], &r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// compareResults prints one row per (workload, metric) and reports
// whether the change may land: no end-to-end regression and no more
// failed operations than the parent.
func compareResults(parent, change map[string][]*result, w io.Writer) bool {
	ok := true
	keys := make([]string, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-14s %-34s %-8s %33s %33s %7s %5s  %s\n", "workload", "metric", "unit",
		"parent q1/median/q3", "change q1/median/q3", "delta", "won", "verdict")
	for _, k := range keys {
		ps, cs := parent[k], change[k]
		workload, trace, _ := strings.Cut(k, " ")
		if len(cs) == 0 {
			fmt.Fprintf(w, "%-14s no %s runs of the change\n", workload, trace)
			ok = false
			continue
		}
		defs, e2e := endToEnd, trace == "t0"
		if !e2e {
			defs = perLayer()
		}
		for _, d := range defs {
			pv, cv := values(ps, d.Name), values(cs, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(d, pv, cv, e2e)
			if j.verdict == regressed {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-34s %-8s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g %+6.1f%% %2d/%-2d  %s\n",
				workload, d.Name, d.Unit, j.parent[0], j.parent[1], j.parent[2], j.change[0], j.change[1], j.change[2],
				100*(j.change[1]-j.parent[1])/math.Abs(j.parent[1]), j.won, j.pairs, j.verdict)
		}
		pf, cf := failed(ps), failed(cs)
		if cf > pf {
			ok = false
			fmt.Fprintf(w, "%-14s %-34s %d failed operations in %d runs, parent %d in %d: %s\n", workload, "failed", cf, len(cs), pf, len(ps), regressed)
		}
	}
	return ok
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failed(rs []*result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func runCompare(parentDir, changeDir string, w io.Writer) int {
	parent, err := loadResults(parentDir)
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("no result files in %s", parentDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 1
	}
	change, err := loadResults(changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 1
	}
	if !compareResults(parent, change, w) {
		fmt.Fprintln(w, "REGRESSION: see the rows marked regressed")
		return 1
	}
	return 0
}
