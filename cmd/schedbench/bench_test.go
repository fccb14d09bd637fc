package main

import (
	"path/filepath"
	"testing"
	"time"

	"schedcomp/internal/corpus"
)

func tinyCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{Seed: 7, GraphsPerSet: 1, MinNodes: 8, MaxNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBenchHashesAreReproducible(t *testing.T) {
	c := tinyCorpus(t)
	r1, err := runBench(c, time.Second, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runBench(c, time.Second, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Heuristics) == 0 {
		t.Fatal("no heuristics benched")
	}
	for i := range r1.Heuristics {
		a, b := r1.Heuristics[i], r2.Heuristics[i]
		if a.Name != b.Name || a.ScheduleHash != b.ScheduleHash {
			t.Errorf("%s: hash %s vs %s across identical runs", a.Name, a.ScheduleHash, b.ScheduleHash)
		}
	}
}

func TestBenchGoldenRoundTrip(t *testing.T) {
	c := tinyCorpus(t)
	res, err := runBench(c, time.Second, "note", nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeBench(path, res); err != nil {
		t.Fatal(err)
	}
	golden, err := loadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareGolden(res, golden); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	// A corrupted hash must be detected.
	golden.Heuristics[0].ScheduleHash = "fnv1a:0000000000000000"
	if err := compareGolden(res, golden); err == nil {
		t.Fatal("hash divergence not detected")
	}

	// A spec mismatch must refuse the comparison outright.
	golden, _ = loadBench(path)
	golden.Spec.Seed++
	if err := compareGolden(res, golden); err == nil {
		t.Fatal("spec mismatch not detected")
	}
}

// TestGoldenScheduleHashes runs every registered heuristic over the
// corpus the committed golden file was measured on and requires every
// schedule hash to match, so that `go test` catches a changed schedule
// the same way `schedbench -compare` against the golden does.
func TestGoldenScheduleHashes(t *testing.T) {
	golden, err := loadBench(filepath.Join("testdata", "golden_graphs5.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(corpus.Spec{
		Seed:         golden.Spec.Seed,
		GraphsPerSet: golden.Spec.GraphsPerSet,
		MinNodes:     golden.Spec.MinNodes,
		MaxNodes:     golden.Spec.MaxNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runBench(c, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareGolden(res, golden); err != nil {
		t.Fatal(err)
	}
}
