package main

import (
	"fmt"
	"strings"
)

// compareBench renders a per-heuristic diff of two bench results —
// ns/graph, allocs/graph, bytes/graph, end-to-end throughput, and
// schedule-hash equality — and reports an error when the results are
// incomparable (different specs) or any heuristic's schedule hash
// diverged. Performance may move freely between runs; behaviour may
// not.
func compareBench(oldRes, newRes *BenchResult) (string, error) {
	if oldRes.Spec != newRes.Spec {
		return "", fmt.Errorf("bench specs differ: old %+v, new %+v", oldRes.Spec, newRes.Spec)
	}
	oldBy := map[string]HeuristicBench{}
	for _, h := range oldRes.Heuristics {
		oldBy[h.Name] = h
	}

	var b strings.Builder
	var mismatched []string
	fmt.Fprintf(&b, "%-7s %25s %21s %23s  %s\n", "", "ns/graph", "allocs/graph", "bytes/graph", "schedules")
	for _, nh := range newRes.Heuristics {
		oh, ok := oldBy[nh.Name]
		if !ok {
			fmt.Fprintf(&b, "%-7s (not in old result)\n", nh.Name)
			continue
		}
		delete(oldBy, nh.Name)
		hashNote := "identical"
		if oh.ScheduleHash != nh.ScheduleHash {
			hashNote = "MISMATCH"
			mismatched = append(mismatched, fmt.Sprintf("%s: old %s, new %s", nh.Name, oh.ScheduleHash, nh.ScheduleHash))
		}
		fmt.Fprintf(&b, "%-7s %10d -> %8d %s %7d -> %6d %s %9d -> %8d %s  %s\n",
			nh.Name,
			oh.NsPerGraph, nh.NsPerGraph, ratio(float64(oh.NsPerGraph), float64(nh.NsPerGraph)),
			oh.AllocsPerGraph, nh.AllocsPerGraph, ratio(float64(oh.AllocsPerGraph), float64(nh.AllocsPerGraph)),
			oh.BytesPerGraph, nh.BytesPerGraph, ratio(float64(oh.BytesPerGraph), float64(nh.BytesPerGraph)),
			hashNote)
	}
	for _, h := range oldRes.Heuristics {
		if _, stillOld := oldBy[h.Name]; stillOld {
			fmt.Fprintf(&b, "%-7s (not in new result)\n", h.Name)
			mismatched = append(mismatched, fmt.Sprintf("%s: missing from new result", h.Name))
		}
	}
	fmt.Fprintf(&b, "end-to-end: %.1f -> %.1f graphs/sec %s\n",
		oldRes.GraphsPerSec, newRes.GraphsPerSec, ratio(newRes.GraphsPerSec, oldRes.GraphsPerSec))
	if len(mismatched) > 0 {
		return b.String(), fmt.Errorf("schedule hashes diverged:\n  %s", strings.Join(mismatched, "\n  "))
	}
	return b.String(), nil
}

// ratio formats new-over-old (or old-over-new for times, where the
// caller passes arguments so that >1 means improvement) as "(2.41x)";
// a zero denominator yields "(n/a)".
func ratio(num, den float64) string {
	if num == 0 || den == 0 {
		return "(n/a) "
	}
	return fmt.Sprintf("(%.2fx)", num/den)
}
