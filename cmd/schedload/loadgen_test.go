package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/mcp"
)

// stubOptions tunes the stub server: shed cadence, an injected
// service delay on served responses, and canonical-hash cache
// emulation (marking repeated content hit, first sighting miss).
type stubOptions struct {
	shedEvery  int64
	serveDelay time.Duration
	cacheAware bool
	// coalesceSecond marks a graph's second sighting coalesced, as if
	// it had waited on the first one's computation.
	coalesceSecond bool
	// qualityFactor, when positive, makes the stub answer ?quality=best
	// with a quality block whose elapsed_ms is factor × the requested
	// budget (so overshoot ratios are deterministic). Zero means the
	// stub ignores the parameter entirely — a downgrading server the
	// client must flag.
	qualityFactor float64
	// brokenGap corrupts the quality block's gap field.
	brokenGap bool
}

// stubServe is a minimal schedserve stand-in: it really schedules with
// MCP so the client's validation path sees authentic responses, and
// optionally sheds every Nth /schedule request.
func stubServe(t *testing.T, shedEvery int64) *httptest.Server {
	return stubServeOpts(t, stubOptions{shedEvery: shedEvery})
}

func stubServeOpts(t *testing.T, opts stubOptions) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	var mu sync.Mutex
	seen := make(map[dag.Fingerprint]int)
	cacheStatus := func(g *dag.Graph) string {
		if !opts.cacheAware {
			return ""
		}
		fp := g.CanonicalHash()
		mu.Lock()
		defer mu.Unlock()
		seen[fp]++
		switch {
		case seen[fp] == 1:
			return "miss"
		case seen[fp] == 2 && opts.coalesceSecond:
			return "coalesced"
		}
		return "hit"
	}
	writeItem := func(w http.ResponseWriter, g *dag.Graph, index int, cache string, budget string) {
		sc, err := heuristics.Run(mcp.New(), g)
		if err != nil {
			t.Errorf("stub schedule: %v", err)
			return
		}
		body := scheduleBody{Index: index, Makespan: sc.Makespan, Cache: cache}
		if budget != "" && opts.qualityFactor > 0 {
			b, err := time.ParseDuration(budget)
			if err != nil {
				t.Errorf("stub budget %q: %v", budget, err)
				return
			}
			budgetMs := float64(b) / float64(time.Millisecond)
			q := &qualityWire{
				LowerBound: sc.Makespan, // gap 0: pretend the probe proved it
				Gap:        0,
				Proven:     true,
				BudgetMs:   budgetMs,
				ElapsedMs:  budgetMs * opts.qualityFactor,
			}
			if opts.brokenGap {
				q.Gap = 7
			}
			body.Quality = q
		}
		for _, a := range sc.ByNode {
			body.Assignments = append(body.Assignments, assignment{
				Node: int(a.Node), Proc: a.Proc, Start: a.Start, Finish: a.Finish,
			})
		}
		_ = json.NewEncoder(w).Encode(body) // Encode terminates the NDJSON line
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		if opts.shedEvery > 0 && n.Add(1)%opts.shedEvery == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		g, err := dag.ReadJSON(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if opts.serveDelay > 0 {
			time.Sleep(opts.serveDelay)
		}
		cache := cacheStatus(g)
		if cache != "" {
			w.Header().Set("X-Sched-Cache", cache)
		}
		budget := ""
		if r.URL.Query().Get("quality") == "best" {
			budget = r.URL.Query().Get("budget")
		}
		writeItem(w, g, 0, cache, budget)
	})
	mux.HandleFunc("/schedule/batch", func(w http.ResponseWriter, r *http.Request) {
		var graphs []*dag.Graph
		if err := json.NewDecoder(r.Body).Decode(&graphs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if opts.serveDelay > 0 {
			time.Sleep(opts.serveDelay)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i, g := range graphs {
			writeItem(w, g, i, cacheStatus(g), "")
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func shortLoadConfig(addr string) loadConfig {
	return loadConfig{
		Addr: addr, Conc: 4, Dur: 300 * time.Millisecond,
		Heuristic: "MCP", Seed: 3, MinNodes: 8, MaxNodes: 16,
	}
}

func TestRunLoadSingle(t *testing.T) {
	ts := stubServe(t, 0)
	rep, err := runLoad(shortLoadConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatal("no successful requests against the stub")
	}
	if rep.ValidationFailures != 0 || rep.TransportErrors != 0 {
		t.Fatalf("clean stub produced failures: %+v", rep)
	}
	if rep.Requests != rep.Items || rep.OK != rep.Items {
		t.Fatalf("single mode accounting: %+v", rep)
	}
	if rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Fatalf("latency quantiles inverted: %+v", rep)
	}
}

func TestRunLoadCountsSheds(t *testing.T) {
	ts := stubServe(t, 3) // every third request sheds
	rep, err := runLoad(shortLoadConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("stub sheds every 3rd request but report saw none: %+v", rep)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate = %v, want within (0,1)", rep.ShedRate)
	}
	if rep.ValidationFailures != 0 {
		t.Fatalf("sheds counted as validation failures: %+v", rep)
	}
}

func TestRunLoadBatch(t *testing.T) {
	ts := stubServe(t, 0)
	cfg := shortLoadConfig(ts.URL)
	cfg.Batch = 5
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ValidationFailures != 0 || rep.TransportErrors != 0 {
		t.Fatalf("batch run: %+v", rep)
	}
	if rep.Items != rep.Requests*cfg.Batch {
		t.Fatalf("items = %d, want requests (%d) x batch (%d)", rep.Items, rep.Requests, cfg.Batch)
	}
}

// TestServedShedLatencySplit guards the quantile fix: shed responses
// used to be folded into the same latency population as served ones,
// dragging p50/p99 down under overload. With a 20ms injected service
// delay and instant sheds, the served median must carry the delay
// while the shed median stays well below it.
func TestServedShedLatencySplit(t *testing.T) {
	const delay = 20 * time.Millisecond
	ts := stubServeOpts(t, stubOptions{shedEvery: 2, serveDelay: delay})
	cfg := shortLoadConfig(ts.URL)
	cfg.Conc = 2
	cfg.Dur = 500 * time.Millisecond
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.Shed == 0 {
		t.Fatalf("need both served and shed traffic: %+v", rep)
	}
	if rep.LatencyP50Ms < float64(delay/time.Millisecond)/2 {
		t.Fatalf("served p50 = %.2fms, want >= %.0fms (injected delay leaked out)",
			rep.LatencyP50Ms, float64(delay/time.Millisecond)/2)
	}
	if rep.ShedLatencyP50Ms >= rep.LatencyP50Ms {
		t.Fatalf("shed p50 (%.2fms) >= served p50 (%.2fms): split is not separating populations",
			rep.ShedLatencyP50Ms, rep.LatencyP50Ms)
	}
	wantRate := float64(rep.Shed) / float64(rep.OK+rep.Shed+rep.Timeouts)
	if rep.ShedRate != wantRate {
		t.Fatalf("shed rate = %v, want %v", rep.ShedRate, wantRate)
	}
}

// TestDupTrafficHitsCache drives pure duplicate traffic (identical,
// renamed, and relabeled isomorphic copies) at a canonical-hash-aware
// stub: everything past the first sighting of each base graph must
// come back a hit, and hits validate like any other response.
func TestDupTrafficHitsCache(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{cacheAware: true})
	cfg := shortLoadConfig(ts.URL)
	cfg.Dup = 1.0
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidationFailures != 0 || rep.TransportErrors != 0 {
		t.Fatalf("duplicate traffic failed validation: %+v", rep)
	}
	if rep.CacheMisses == 0 || rep.CacheHits == 0 {
		t.Fatalf("want both misses (first sightings) and hits: %+v", rep)
	}
	if rep.CacheHits+rep.CacheCoalesced+rep.CacheMisses != rep.OK {
		t.Fatalf("cache accounting %d+%d+%d != ok %d", rep.CacheHits, rep.CacheCoalesced, rep.CacheMisses, rep.OK)
	}
	if rep.CacheHitRate <= 0 || rep.CacheHitRate >= 1 {
		t.Fatalf("hit rate = %v, want within (0,1)", rep.CacheHitRate)
	}
}

// Coalesced responses get their own count, close the accounting
// (hits + coalesced + misses == ok) and, answered without computing,
// count toward the hit rate.
func TestDupTrafficCountsCoalesced(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{cacheAware: true, coalesceSecond: true})
	cfg := shortLoadConfig(ts.URL)
	cfg.Dup = 1.0
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidationFailures != 0 || rep.CacheCoalesced == 0 || rep.CacheMisses == 0 {
		t.Fatalf("want misses and coalesced responses: %+v", rep)
	}
	if rep.CacheHits+rep.CacheCoalesced+rep.CacheMisses != rep.OK {
		t.Fatalf("cache accounting %d+%d+%d != ok %d", rep.CacheHits, rep.CacheCoalesced, rep.CacheMisses, rep.OK)
	}
	want := float64(rep.CacheHits+rep.CacheCoalesced) / float64(rep.OK)
	if rep.CacheHitRate != want {
		t.Fatalf("hit rate = %v, want %v", rep.CacheHitRate, want)
	}
}

// TestFreshTrafficNeverHits is the uniqueness guarantee for -dup 0:
// every generated graph is content-distinct, so a canonical-hash cache
// never sees a repeat.
func TestFreshTrafficNeverHits(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{cacheAware: true})
	cfg := shortLoadConfig(ts.URL)
	cfg.Dup = 0
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ValidationFailures != 0 {
		t.Fatalf("fresh traffic run: %+v", rep)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("%d cache hits on supposedly content-unique traffic", rep.CacheHits)
	}
	if rep.CacheMisses != rep.OK {
		t.Fatalf("misses %d != ok %d", rep.CacheMisses, rep.OK)
	}
}

// TestBatchDupCacheCounts exercises the per-line cache field on the
// batch path.
func TestBatchDupCacheCounts(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{cacheAware: true})
	cfg := shortLoadConfig(ts.URL)
	cfg.Dup = 1.0
	cfg.Batch = 4
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ValidationFailures != 0 || rep.TransportErrors != 0 {
		t.Fatalf("batch dup run: %+v", rep)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("no cache hits across %d duplicate batch items", rep.Items)
	}
	if rep.CacheHits+rep.CacheCoalesced+rep.CacheMisses != rep.OK {
		t.Fatalf("cache accounting %d+%d+%d != ok %d", rep.CacheHits, rep.CacheCoalesced, rep.CacheMisses, rep.OK)
	}
}

// TestCheckScheduleRejectsCorruption guards the validator itself: a
// forged makespan or a placement violating dependencies must fail.
func TestCheckScheduleRejectsCorruption(t *testing.T) {
	g := dag.New("pair")
	a := g.AddNode(10)
	b := g.AddNode(10)
	g.MustAddEdge(a, b, 3)
	sc, err := heuristics.Run(mcp.New(), g)
	if err != nil {
		t.Fatal(err)
	}
	good := scheduleBody{Makespan: sc.Makespan}
	for _, x := range sc.ByNode {
		good.Assignments = append(good.Assignments, assignment{
			Node: int(x.Node), Proc: x.Proc, Start: x.Start, Finish: x.Finish,
		})
	}
	if err := checkSchedule(g, good); err != nil {
		t.Fatalf("authentic schedule rejected: %v", err)
	}

	forged := good
	forged.Makespan++
	if err := checkSchedule(g, forged); err == nil {
		t.Fatal("forged makespan accepted")
	}

	truncated := good
	truncated.Assignments = truncated.Assignments[:1]
	if err := checkSchedule(g, truncated); err == nil {
		t.Fatal("truncated assignment list accepted")
	}
}

// TestRunLoadQuality drives the quality tier at a stub whose reported
// refinement time overshoots the budget by a fixed 5%: every response
// must validate (schedule AND quality block), and the overshoot
// quantiles must reproduce the stub's factor exactly.
func TestRunLoadQuality(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{qualityFactor: 1.05})
	cfg := shortLoadConfig(ts.URL)
	cfg.Quality = true
	cfg.Budget = 20 * time.Millisecond
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ValidationFailures != 0 || rep.TransportErrors != 0 {
		t.Fatalf("quality run: %+v", rep)
	}
	if !rep.Quality || rep.Heuristic != "quality:best" || rep.BudgetMs != 20 {
		t.Fatalf("quality fields not reported: %+v", rep)
	}
	if rep.ProvenOptimal != rep.OK {
		t.Fatalf("stub proves every result but report says %d of %d", rep.ProvenOptimal, rep.OK)
	}
	const want = 0.05
	for name, got := range map[string]float64{
		"p50": rep.OvershootP50, "p99": rep.OvershootP99, "max": rep.OvershootMax,
	} {
		if got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("overshoot %s = %v, want %v", name, got, want)
		}
	}
}

// A server that quietly ignores ?quality=best and answers with a plain
// schedule must show up as validation failures, not silent success.
func TestRunLoadQualityFlagsDowngradingServer(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{}) // stub ignores the quality param
	cfg := shortLoadConfig(ts.URL)
	cfg.Quality = true
	cfg.Budget = 20 * time.Millisecond
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 || rep.ValidationFailures == 0 {
		t.Fatalf("downgraded responses accepted: %+v", rep)
	}
}

// A quality block with an inconsistent gap is corruption, same as a
// forged makespan.
func TestRunLoadQualityFlagsBrokenGap(t *testing.T) {
	ts := stubServeOpts(t, stubOptions{qualityFactor: 1, brokenGap: true})
	cfg := shortLoadConfig(ts.URL)
	cfg.Quality = true
	cfg.Budget = 20 * time.Millisecond
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 || rep.ValidationFailures == 0 {
		t.Fatalf("broken gap accepted: %+v", rep)
	}
}

// Quality-mode config validation: batch and non-positive budgets are
// rejected before any traffic is sent, and the CLI refuses the
// contradictory flag combinations.
func TestQualityConfigValidation(t *testing.T) {
	cfg := shortLoadConfig("http://127.0.0.1:0")
	cfg.Quality = true
	cfg.Budget = 10 * time.Millisecond
	cfg.Batch = 4
	if _, err := runLoad(cfg); err == nil {
		t.Fatal("quality batch accepted")
	}
	cfg.Batch = 0
	cfg.Budget = 0
	if _, err := runLoad(cfg); err == nil {
		t.Fatal("zero budget accepted")
	}
	for _, args := range [][]string{
		{"-budget", "5ms"},                // budget without quality
		{"-quality", "-heuristic", "MCP"}, // contradictory selection
		{"-quality", "-batch", "4"},       // quality batch
		{"-quality", "-budget", "-5ms"},   // negative budget
		{"-quality", "-budget", "5ms", "-batch", "2"},
	} {
		if code := run(args, os.Stdout); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}
