package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
)

// The corpus workload is the paper's own evaluation: every registered
// heuristic over the 2100-graph corpus on one goroutine. Placement, the
// dag analyses and sched.Build/Validate do all the work; there is no
// JSON, hashing, cache or HTTP.
const (
	corpusSetups    = 3
	corpusMinRounds = 3
	corpusMaxRounds = 7
)

// corpusGraphs generates the paper corpus for seed n times and returns
// its graphs in corpus order with the set-up times.
func corpusGraphs(seed int64, n int, clock *hostClock) ([]*dag.Graph, timings, error) {
	var c *corpus.Corpus
	var setups timings
	for i := 0; i < n; i++ {
		c = nil
		clock.mark()
		t0 := time.Now()
		var err error
		if c, err = corpus.Generate(corpus.PaperSpec(seed)); err != nil {
			return nil, setups, err
		}
		setups.add(time.Since(t0).Seconds(), clock.speed())
	}
	var graphs []*dag.Graph
	for _, set := range c.Sets {
		graphs = append(graphs, set.Graphs...)
	}
	return graphs, setups, nil
}

// cold returns fresh clones of graphs: no analysis is cached on them.
func cold(graphs []*dag.Graph) []*dag.Graph {
	out := make([]*dag.Graph, len(graphs))
	for i, g := range graphs {
		out[i] = g.Clone()
	}
	return out
}

func runCorpus(cfg config, res *result) error {
	clock := newHostClock(1)
	graphs, setups, err := corpusGraphs(cfg.seed, corpusSetups, clock)
	if err != nil {
		return err
	}
	lbs := make([]int64, len(graphs))
	for i, g := range graphs {
		if lbs[i], err = lowerBound(g); err != nil {
			return err
		}
	}
	names := heuristics.Names()
	pid := os.Getpid()
	// lat holds, per (heuristic, graph), the fastest of the rounds'
	// latencies: a burst of host slowness that hits one round does not
	// reach the quantiles.
	lat := timings{Raw: make([]float64, len(names)*len(graphs)), Ref: make([]float64, len(names)*len(graphs))}
	for i := range lat.Raw {
		lat.Raw[i], lat.Ref[i] = math.Inf(1), math.Inf(1)
	}
	var (
		rounds, cpu timings
		first       map[string]string
		gaps        []float64
		proven      int
		deadline    = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	)
	for r := 0; r < corpusMaxRounds && (r < corpusMinRounds || time.Now().Before(deadline)); r++ {
		hashes := map[string]string{}
		var round timings
		for hi, name := range names {
			s, err := heuristics.New(name)
			if err != nil {
				return err
			}
			clones := cold(graphs)
			h := newScheduleHash()
			clock.mark()
			c0, err := cpuTime(pid)
			if err != nil {
				return err
			}
			passLat := make([]float64, 0, len(clones))
			t0 := time.Now()
			for i, g := range clones {
				ts := time.Now()
				sc, err := heuristics.Run(s, g)
				passLat = append(passLat, float64(time.Since(ts))/float64(time.Millisecond))
				res.Attempted++
				if err != nil {
					res.fail(1, fmt.Errorf("%s on %s: %w", name, g.Name(), err))
					continue
				}
				h.add(sc)
				if r == 0 {
					gaps = append(gaps, 100*float64(sc.Makespan-lbs[i])/float64(lbs[i]))
					if sc.Makespan == lbs[i] {
						proven++
					}
				}
			}
			wall := time.Since(t0)
			c1, err := cpuTime(pid)
			if err != nil {
				return err
			}
			speed := clock.speed()
			round.add(wall.Seconds(), speed)
			cpu.add((c1 - c0).Seconds(), speed)
			for i, l := range passLat {
				j := hi*len(graphs) + i
				lat.Raw[j] = math.Min(lat.Raw[j], l)
				lat.Ref[j] = math.Min(lat.Ref[j], l*speed)
			}
			hashes[name] = h.String()
		}
		rounds.Raw = append(rounds.Raw, sum(round.Raw))
		rounds.Ref = append(rounds.Ref, sum(round.Ref))
		want := first
		if cfg.seed == goldenSeed {
			want = goldenHashes
		}
		if r == 0 {
			first = hashes
			res.Details["hashes"] = hashes
		}
		if want != nil {
			if err := checkHashes(hashes, want); err != nil {
				res.fail(1, fmt.Errorf("round %d: %w", r+1, err))
			}
		}
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	perRound := float64(len(graphs) * len(names))
	tail := tailQuantile(len(lat.Ref))
	timed := func(pick func(*timings) []float64) map[string]float64 {
		return map[string]float64{
			"setup_s":         median(pick(&setups)),
			"schedules_per_s": perRound / median(pick(&rounds)),
			"req_per_s":       float64(len(graphs)) / median(pick(&rounds)),
			"latency_p50_ms":  median(pick(&lat)),
			"latency_p99_ms":  quantile(pick(&lat), tail),
			"cpu_ms_per_op":   1000 * sum(pick(&cpu)) / (perRound * float64(len(rounds.Ref))),
		}
	}
	for n, v := range timed(func(t *timings) []float64 { return t.Ref }) {
		res.set(endToEnd, n, v)
	}
	res.set(endToEnd, "rss_peak_mb", rss)
	res.set(endToEnd, "ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.set(endToEnd, "proven_share", float64(proven)/float64(len(gaps)))
	res.set(endToEnd, "gap_mean_pct", mean(gaps))
	res.Details["unscaled"] = timed(func(t *timings) []float64 { return t.Raw })
	res.Details["ref_kernel_s"] = clock.samples
	res.Details["round_s"] = rounds
	res.Details["setup_s"] = setups
	res.Details["latency_samples"] = len(lat.Ref)
	res.Details["latency_tail_q"] = tail
	res.Details["graphs"] = len(graphs)
	return nil
}
