package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"schedcomp/internal/corpus"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
)

// BenchSpec pins the corpus parameters a bench result was measured on.
// Golden comparison refuses to compare results from different specs.
type BenchSpec struct {
	Seed         int64 `json:"seed"`
	GraphsPerSet int   `json:"graphs_per_set"`
	MinNodes     int   `json:"min_nodes"`
	MaxNodes     int   `json:"max_nodes"`
}

// HeuristicBench aggregates one heuristic's pass over the whole corpus.
type HeuristicBench struct {
	Name           string `json:"name"`
	NsPerGraph     int64  `json:"ns_per_graph"`
	AllocsPerGraph uint64 `json:"allocs_per_graph"`
	// BytesPerGraph is the heap bytes allocated per graph
	// (MemStats.TotalAlloc delta over the pass), the volume counterpart
	// to the AllocsPerGraph count: hoisting many small allocations into
	// one big one moves allocs_per_graph but barely moves this, while a
	// growing per-iteration buffer moves both.
	BytesPerGraph uint64  `json:"bytes_per_graph"`
	GraphsPerSec  float64 `json:"graphs_per_sec"`
	// ScheduleHash is an FNV-1a digest over every schedule the
	// heuristic produced (assignments in node order plus makespan and
	// processor count, graphs in corpus order). Any behavioural change
	// to the heuristic, the timing builder, or the generator shows up
	// here.
	ScheduleHash string `json:"schedule_hash"`
}

// BenchResult is the schema of BENCH_schedbench.json.
type BenchResult struct {
	Spec        BenchSpec `json:"spec"`
	Graphs      int       `json:"graphs"`
	CorpusGenMs int64     `json:"corpus_gen_ms"`
	// EvalMs is the summed single-threaded wall time of all heuristic
	// passes (per-heuristic numbers are measured sequentially so they
	// are stable; this is NOT the parallel testbed time).
	EvalMs  int64 `json:"eval_ms"`
	TotalMs int64 `json:"total_ms"`
	// GraphsPerSec is corpus throughput end to end: graphs over
	// generation plus evaluation wall time.
	GraphsPerSec float64          `json:"graphs_per_sec"`
	Heuristics   []HeuristicBench `json:"heuristics"`
	Note         string           `json:"note,omitempty"`
}

// runBench runs every registered heuristic over the corpus, one
// heuristic at a time on a single goroutine, and aggregates timing,
// allocation, and schedule-hash measurements. tr may be nil; when set,
// each heuristic's pass is recorded as a child span.
func runBench(c *corpus.Corpus, corpusGen time.Duration, note string, tr *obs.Trace) (*BenchResult, error) {
	res := &BenchResult{
		Spec: BenchSpec{
			Seed:         c.Spec.Seed,
			GraphsPerSet: c.Spec.GraphsPerSet,
			MinNodes:     c.Spec.MinNodes,
			MaxNodes:     c.Spec.MaxNodes,
		},
		Graphs:      c.NumGraphs(),
		CorpusGenMs: corpusGen.Milliseconds(),
		Note:        note,
	}
	var evalTotal time.Duration
	var ms runtime.MemStats
	spBench := tr.Span("bench")
	defer spBench.End()
	for _, name := range heuristics.Names() {
		s, err := heuristics.New(name)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		runtime.ReadMemStats(&ms)
		allocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		spH := spBench.Span(name)
		start := time.Now()
		for _, set := range c.Sets {
			for _, g := range set.Graphs {
				sc, err := heuristics.Run(s, g)
				if err != nil {
					return nil, fmt.Errorf("bench: %s on %s: %w", name, g.Name(), err)
				}
				word(uint64(sc.Makespan))
				word(uint64(sc.NumProcs))
				for _, a := range sc.ByNode {
					word(uint64(a.Proc))
					word(uint64(a.Start))
					word(uint64(a.Finish))
				}
			}
		}
		elapsed := time.Since(start)
		spH.End()
		runtime.ReadMemStats(&ms)
		evalTotal += elapsed
		n := c.NumGraphs()
		res.Heuristics = append(res.Heuristics, HeuristicBench{
			Name:           name,
			NsPerGraph:     elapsed.Nanoseconds() / int64(n),
			AllocsPerGraph: (ms.Mallocs - allocs0) / uint64(n),
			BytesPerGraph:  (ms.TotalAlloc - bytes0) / uint64(n),
			GraphsPerSec:   float64(n) / elapsed.Seconds(),
			ScheduleHash:   fmt.Sprintf("fnv1a:%016x", h.Sum64()),
		})
	}
	res.EvalMs = evalTotal.Milliseconds()
	res.TotalMs = (corpusGen + evalTotal).Milliseconds()
	res.GraphsPerSec = float64(res.Graphs) / (corpusGen + evalTotal).Seconds()
	return res, nil
}

// writeBench writes the result as indented JSON.
func writeBench(path string, res *BenchResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadBench reads a previously written bench result.
func loadBench(path string) (*BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res BenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareGolden checks the schedule hashes of res against a committed
// golden result. A spec mismatch is an error (the hashes would be
// incomparable); a hash mismatch means some heuristic's output changed.
func compareGolden(res, golden *BenchResult) error {
	if res.Spec != golden.Spec {
		return fmt.Errorf("bench spec %+v does not match golden spec %+v: regenerate the golden", res.Spec, golden.Spec)
	}
	want := map[string]string{}
	for _, h := range golden.Heuristics {
		want[h.Name] = h.ScheduleHash
	}
	var bad []string
	for _, h := range res.Heuristics {
		g, ok := want[h.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from golden", h.Name))
			continue
		}
		if g != h.ScheduleHash {
			bad = append(bad, fmt.Sprintf("%s: hash %s, golden %s", h.Name, h.ScheduleHash, g))
		}
	}
	if len(res.Heuristics) != len(golden.Heuristics) {
		bad = append(bad, fmt.Sprintf("%d heuristics benched, golden has %d", len(res.Heuristics), len(golden.Heuristics)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("schedule hashes diverged from golden:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
