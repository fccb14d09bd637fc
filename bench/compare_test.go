package main

import (
	"io"
	"testing"
)

func series(start, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = start + step*float64(i)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	latency := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 70}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		endToEnd       bool
		want           string
	}{
		{"faster in every pair", latency, series(100, 1), series(90, 1), true, improved},
		{"higher rate in every pair", rate, series(100, 1), series(110, 1), true, improved},
		{"slower beyond the bound", latency, series(100, 1), series(115, 1), true, regressed},
		{"lower rate beyond the bound", rate, series(100, 1), series(85, 1), true, regressed},
		{"slower within the bound", latency, series(100, 1), series(101, 1), true, unchanged},
		{"better but inside the parent's spread", latency, series(100, 1), series(98, 1), true, unchanged},
		{"parent spread wider than the bound", latency, noisy, noisy[2:], true, unresolved},
		{"noisy but every change run better", latency, series(100, 10), series(10, 1), true, improved},
		{"noisy and every change run worse", latency, series(10, 1), series(100, 10), true, regressed},
		{"layer got faster", latency, series(100, 1), series(90, 1), false, improved},
		{"layer got slower", latency, series(100, 1), series(120, 1), false, worsened},
		{"layer unchanged", latency, series(100, 1), series(100.5, 1), false, unchanged},
	} {
		if got := judge(tc.d, tc.parent, tc.change, tc.endToEnd).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeCountsPairsWon(t *testing.T) {
	rate := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	parent := series(100, 1)
	change := series(100, 1)
	change[0], change[1] = 200, 200
	j := judge(rate, parent, change, true)
	if j.won != 2 || j.pairs != 10 || j.verdict != unchanged {
		t.Fatalf("won %d/%d, verdict %s; want 2/10, unchanged: eight ties win nothing", j.won, j.pairs, j.verdict)
	}
}

func runs(workload string, failed int, metrics map[string]float64) []*result {
	var out []*result
	for seed := int64(1); seed <= 10; seed++ {
		r := &result{Workload: workload, Seed: seed, Failed: failed, Metrics: map[string]value{}}
		for n, v := range metrics {
			r.Metrics[n] = value{Value: v + float64(seed)}
		}
		out = append(out, r)
	}
	return out
}

func TestCompareResultsFailsOnRegressionOrMoreFailures(t *testing.T) {
	base := map[string]float64{"req_per_s": 1000, "latency_p50_ms": 100}
	same := map[string][]*result{"serve_dup t0": runs("serve_dup", 0, base)}
	if !compareResults(same, same, io.Discard) {
		t.Error("identical runs rejected")
	}
	slower := map[string][]*result{"serve_dup t0": runs("serve_dup", 0, map[string]float64{"req_per_s": 1000, "latency_p50_ms": 150})}
	if compareResults(same, slower, io.Discard) {
		t.Error("a 50% latency regression passed")
	}
	failing := map[string][]*result{"serve_dup t0": runs("serve_dup", 1, base)}
	if compareResults(same, failing, io.Discard) {
		t.Error("a change with failed operations passed")
	}
	if compareResults(same, map[string][]*result{}, io.Discard) {
		t.Error("a change without runs of a workload passed")
	}
}
