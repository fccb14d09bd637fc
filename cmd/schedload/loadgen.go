package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
	"schedcomp/internal/stats"
)

// loadConfig parameterizes one load run.
type loadConfig struct {
	Addr      string
	RPS       float64
	Conc      int
	Dur       time.Duration
	Heuristic string
	Batch     int
	Seed      int64
	MinNodes  int
	MaxNodes  int
	// Dup is the fraction of requests drawn from a fixed pool of
	// repeated content: identical, renamed, and relabeled (isomorphic)
	// copies of the corpus graphs. The remaining requests are
	// content-unique weight perturbations, so a schedule cache can
	// never serve them from a prior entry.
	Dup float64
	// Quality drives ?quality=best instead of a single heuristic;
	// Budget is the per-request refinement allowance. Quality is
	// single-request only (the server rejects quality batches).
	Quality bool
	Budget  time.Duration
}

// Report aggregates one load run. Serialized as the CI artifact.
//
// latency_* quantiles cover served (200) responses only; shed (429)
// responses get their own shed_latency_* quantiles. Request timeouts
// (503) appear in neither — their latency is the deadline, not a
// measurement.
type Report struct {
	Heuristic          string  `json:"heuristic"`
	Batch              int     `json:"batch"`
	Clients            int     `json:"clients"`
	DupRatio           float64 `json:"dup_ratio"`
	DurationSeconds    float64 `json:"duration_seconds"`
	Requests           int     `json:"requests"`
	Items              int     `json:"items"`
	OK                 int     `json:"ok"`
	Shed               int     `json:"shed"`
	Timeouts           int     `json:"timeouts"`
	TransportErrors    int     `json:"transport_errors"`
	ValidationFailures int     `json:"validation_failures"`
	ShedRate           float64 `json:"shed_rate"`
	ItemsPerSecond     float64 `json:"items_per_second"`
	CacheHits          int     `json:"cache_hits"`
	CacheCoalesced     int     `json:"cache_coalesced"`
	CacheMisses        int     `json:"cache_misses"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	Quality            bool    `json:"quality,omitempty"`
	BudgetMs           float64 `json:"budget_ms,omitempty"`
	ProvenOptimal      int     `json:"proven_optimal,omitempty"`
	OvershootP50       float64 `json:"overshoot_p50"`
	OvershootP99       float64 `json:"overshoot_p99"`
	OvershootMax       float64 `json:"overshoot_max"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP90Ms       float64 `json:"latency_p90_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	LatencyMaxMs       float64 `json:"latency_max_ms"`
	ShedLatencyP50Ms   float64 `json:"shed_latency_p50_ms"`
	ShedLatencyP90Ms   float64 `json:"shed_latency_p90_ms"`
	ShedLatencyP99Ms   float64 `json:"shed_latency_p99_ms"`
	ShedLatencyMaxMs   float64 `json:"shed_latency_max_ms"`
}

// Print writes the human-readable summary.
func (r *Report) Print(w io.Writer) {
	mode := "single"
	if r.Batch > 1 {
		mode = fmt.Sprintf("batch=%d", r.Batch)
	}
	fmt.Fprintf(w, "schedload: %s %s, %d clients, %.1fs\n", r.Heuristic, mode, r.Clients, r.DurationSeconds)
	fmt.Fprintf(w, "  requests   %d (%d items, %.1f items/s)\n", r.Requests, r.Items, r.ItemsPerSecond)
	fmt.Fprintf(w, "  ok         %d\n", r.OK)
	fmt.Fprintf(w, "  shed       %d (rate %.1f%%)\n", r.Shed, 100*r.ShedRate)
	fmt.Fprintf(w, "  timeouts   %d\n", r.Timeouts)
	fmt.Fprintf(w, "  errors     %d transport, %d validation\n", r.TransportErrors, r.ValidationFailures)
	if r.CacheHits+r.CacheCoalesced+r.CacheMisses > 0 {
		fmt.Fprintf(w, "  cache      %d hits / %d coalesced / %d misses (hit rate %.1f%%)\n",
			r.CacheHits, r.CacheCoalesced, r.CacheMisses, 100*r.CacheHitRate)
	}
	if r.Quality {
		fmt.Fprintf(w, "  quality    budget=%.0fms, %d proven optimal, overshoot p50=%.3f p99=%.3f max=%.3f\n",
			r.BudgetMs, r.ProvenOptimal, r.OvershootP50, r.OvershootP99, r.OvershootMax)
	}
	fmt.Fprintf(w, "  served ms  p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		r.LatencyP50Ms, r.LatencyP90Ms, r.LatencyP99Ms, r.LatencyMaxMs)
	if r.Shed > 0 {
		fmt.Fprintf(w, "  shed ms    p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
			r.ShedLatencyP50Ms, r.ShedLatencyP90Ms, r.ShedLatencyP99Ms, r.ShedLatencyMaxMs)
	}
}

// assignment mirrors the server's wire format.
type assignment struct {
	Node   int   `json:"node"`
	Proc   int   `json:"proc"`
	Start  int64 `json:"start"`
	Finish int64 `json:"finish"`
}

// scheduleBody is the subset of the /schedule response (and of one
// batch NDJSON line) validation needs.
type scheduleBody struct {
	Index       int          `json:"index"`
	Error       string       `json:"error"`
	Cache       string       `json:"cache"`
	Makespan    int64        `json:"makespan"`
	Assignments []assignment `json:"assignments"`
	Quality     *qualityWire `json:"quality"`
}

// qualityWire is the provenance block of a quality-tier response.
type qualityWire struct {
	LowerBound int64   `json:"lower_bound"`
	Gap        int64   `json:"gap"`
	Proven     bool    `json:"proven"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	BudgetMs   float64 `json:"budget_ms"`
}

// checkQuality enforces the quality-tier contract on the wire: the
// block must be present and internally sound (gap identity against
// the reported makespan, non-negative, Proven exactly when the gap
// closed). A server quietly downgrading to the plain tier fails here.
func checkQuality(body scheduleBody) error {
	q := body.Quality
	if q == nil {
		return fmt.Errorf("quality request answered without a quality block")
	}
	if q.Gap != body.Makespan-q.LowerBound {
		return fmt.Errorf("gap %d != makespan %d - lower bound %d", q.Gap, body.Makespan, q.LowerBound)
	}
	if q.Gap < 0 {
		return fmt.Errorf("negative gap %d", q.Gap)
	}
	if q.Proven != (q.Gap == 0) {
		return fmt.Errorf("proven = %v with gap %d", q.Proven, q.Gap)
	}
	return nil
}

// checkSchedule rebuilds the placement the server returned and
// re-times it under the execution model: the response is only counted
// OK if the schedule validates and the server's makespan matches.
// Responses the server marked as cache hits go through exactly the
// same fresh local rebuild, so a stale or mis-remapped cache entry
// shows up as a validation failure, not silent corruption.
func checkSchedule(g *dag.Graph, body scheduleBody) error {
	if len(body.Assignments) != g.NumNodes() {
		return fmt.Errorf("%d assignments for %d nodes", len(body.Assignments), g.NumNodes())
	}
	as := append([]assignment(nil), body.Assignments...)
	sort.Slice(as, func(i, j int) bool {
		if as[i].Proc != as[j].Proc {
			return as[i].Proc < as[j].Proc
		}
		return as[i].Start < as[j].Start
	})
	pl := sched.NewPlacement(g.NumNodes())
	for _, a := range as {
		if a.Node < 0 || a.Node >= g.NumNodes() {
			return fmt.Errorf("assignment names node %d of %d", a.Node, g.NumNodes())
		}
		pl.Assign(dag.NodeID(a.Node), a.Proc)
	}
	rebuilt, err := sched.Build(g, pl)
	if err != nil {
		return err
	}
	if err := rebuilt.Validate(); err != nil {
		return err
	}
	if rebuilt.Makespan != body.Makespan {
		return fmt.Errorf("server makespan %d, rebuilt %d", body.Makespan, rebuilt.Makespan)
	}
	return nil
}

// tally is the shared, mutex-guarded run accumulator.
type tally struct {
	mu        sync.Mutex
	report    Report
	served    []float64 // milliseconds, one per 200 response
	shed      []float64 // milliseconds, one per 429 response
	overshoot []float64 // budget-overshoot ratios, one per quality 200
}

func (a *tally) addServed(d time.Duration) {
	a.mu.Lock()
	a.served = append(a.served, float64(d)/float64(time.Millisecond))
	a.mu.Unlock()
}

func (a *tally) addShed(d time.Duration) {
	a.mu.Lock()
	a.shed = append(a.shed, float64(d)/float64(time.Millisecond))
	a.mu.Unlock()
}

// addOvershoot records how far the server-reported refinement time ran
// past the requested budget, as a ratio of the budget (0 when within
// it).
func (a *tally) addOvershoot(elapsedMs, budgetMs float64) {
	over := (elapsedMs - budgetMs) / budgetMs
	if over < 0 {
		over = 0
	}
	a.mu.Lock()
	a.overshoot = append(a.overshoot, over)
	a.mu.Unlock()
}

func (a *tally) count(f func(r *Report)) {
	a.mu.Lock()
	f(&a.report)
	a.mu.Unlock()
}

// countCache folds one OK response's cache marker ("hit", "coalesced",
// "miss", or "" from a server without a cache) into the report, so
// against a caching server hits + coalesced + misses == ok.
func countCache(r *Report, status string) {
	switch status {
	case "hit":
		r.CacheHits++
	case "coalesced":
		r.CacheCoalesced++
	case "miss":
		r.CacheMisses++
	}
}

// wireGraph mirrors the dag JSON wire format so the generator can
// relabel and perturb graphs without reaching into dag internals.
type wireGraph struct {
	Name  string     `json:"name,omitempty"`
	Nodes []int64    `json:"nodes"`
	Edges []wireEdge `json:"edges"`
}

type wireEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Weight int64 `json:"weight"`
}

// reqGraph is one sendable request body plus the graph to validate the
// response against.
type reqGraph struct {
	g    *dag.Graph
	body []byte
}

// maxFreshWeight bounds the perturbed weight of fresh graphs. Together
// with the node choice it keeps the first ~million fresh graphs drawn
// from one base pairwise content-distinct.
const maxFreshWeight = 1 << 20

// trafficSource draws request bodies. A coin biased by dup picks
// between the duplicate pool — identical, renamed, and relabeled
// isomorphic variants that all share one canonical hash per base graph
// — and a fresh content-unique perturbation that no cache can have
// seen before.
type trafficSource struct {
	dup      float64
	variants [][]reqGraph // per base graph
	wires    []wireGraph  // base wire forms, cloned for fresh graphs
	fresh    atomic.Int64
}

func compileWire(w wireGraph) (reqGraph, error) {
	body, err := json.Marshal(w)
	if err != nil {
		return reqGraph{}, err
	}
	g, err := dag.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return reqGraph{}, fmt.Errorf("generated graph rejected: %w", err)
	}
	return reqGraph{g: g, body: body}, nil
}

// permuteWire relabels the nodes under a random permutation and
// shuffles edge order: an isomorphic graph with different bytes.
func permuteWire(w wireGraph, rng *rand.Rand) wireGraph {
	n := len(w.Nodes)
	order := rng.Perm(n) // order[new] = old
	inv := make([]int, n)
	for newID, old := range order {
		inv[old] = newID
	}
	out := wireGraph{
		Name:  w.Name + "-perm",
		Nodes: make([]int64, n),
		Edges: make([]wireEdge, len(w.Edges)),
	}
	for newID, old := range order {
		out.Nodes[newID] = w.Nodes[old]
	}
	for i, e := range w.Edges {
		out.Edges[i] = wireEdge{From: inv[e.From], To: inv[e.To], Weight: e.Weight}
	}
	rng.Shuffle(len(out.Edges), func(i, j int) { out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i] })
	return out
}

func newTrafficSource(dup float64, graphs []*dag.Graph, rng *rand.Rand) (*trafficSource, error) {
	if dup < 0 {
		dup = 0
	}
	if dup > 1 {
		dup = 1
	}
	s := &trafficSource{dup: dup}
	for _, g := range graphs {
		data, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		var w wireGraph
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, err
		}
		s.wires = append(s.wires, w)

		identical := reqGraph{g: g, body: data}
		renamed := w
		renamed.Name = w.Name + "-renamed"
		rv, err := compileWire(renamed)
		if err != nil {
			return nil, err
		}
		vs := []reqGraph{identical, rv}
		for k := 0; k < 2; k++ {
			pv, err := compileWire(permuteWire(w, rng))
			if err != nil {
				return nil, err
			}
			vs = append(vs, pv)
		}
		s.variants = append(s.variants, vs)
	}
	return s, nil
}

// pick returns the next request. Duplicates come straight from the
// precompiled pool; fresh graphs perturb one node weight with a
// globally unique counter so their content never repeats.
func (s *trafficSource) pick(rng *rand.Rand) (*dag.Graph, []byte, error) {
	i := rng.Intn(len(s.variants))
	if s.dup > 0 && rng.Float64() < s.dup {
		vs := s.variants[i]
		v := vs[rng.Intn(len(vs))]
		return v.g, v.body, nil
	}
	c := s.fresh.Add(1)
	w := s.wires[i]
	nodes := append([]int64(nil), w.Nodes...)
	v := int(c) % len(nodes)
	nodes[v] = 1 + (nodes[v]+c)%maxFreshWeight
	w.Nodes = nodes
	w.Name = fmt.Sprintf("%s-fresh%d", w.Name, c)
	rg, err := compileWire(w)
	if err != nil {
		return nil, nil, err
	}
	return rg.g, rg.body, nil
}

// runLoad generates the graph population, runs the clients, and
// assembles the report.
func runLoad(cfg loadConfig) (*Report, error) {
	if cfg.Conc < 1 {
		cfg.Conc = 1
	}
	if cfg.Batch < 0 {
		cfg.Batch = 0
	}
	if cfg.Quality {
		if cfg.Batch > 1 {
			return nil, fmt.Errorf("the quality tier is single-request only (got -batch %d)", cfg.Batch)
		}
		if cfg.Budget <= 0 {
			return nil, fmt.Errorf("quality budget %v must be positive", cfg.Budget)
		}
	}
	c, err := corpus.Generate(corpus.Spec{
		Seed: cfg.Seed, GraphsPerSet: 1, MinNodes: cfg.MinNodes, MaxNodes: cfg.MaxNodes,
	})
	if err != nil {
		return nil, err
	}
	var graphs []*dag.Graph
	for _, set := range c.Sets {
		graphs = append(graphs, set.Graphs...)
	}
	src, err := newTrafficSource(cfg.Dup, graphs, rand.New(rand.NewSource(cfg.Seed^0x5eedca4e)))
	if err != nil {
		return nil, err
	}

	// Rate limiting: a shared token stream at the target rate. The
	// buffer lets a brief stall catch up without a thundering herd.
	var tokens chan struct{}
	stopPacer := make(chan struct{})
	if cfg.RPS > 0 {
		tokens = make(chan struct{}, cfg.Conc)
		interval := time.Duration(float64(time.Second) / cfg.RPS)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				case <-stopPacer:
					return
				}
			}
		}()
	}

	acc := &tally{}
	client := &http.Client{Timeout: 60 * time.Second}
	deadline := time.Now().Add(cfg.Dur)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conc; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				if cfg.Batch > 1 {
					doBatch(client, cfg, rng, src, acc)
				} else {
					doSingle(client, cfg, rng, src, acc)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopPacer)
	elapsed := time.Since(t0)

	rep := acc.report
	rep.Heuristic = cfg.Heuristic
	if cfg.Quality {
		rep.Heuristic = "quality:best"
		rep.Quality = true
		rep.BudgetMs = float64(cfg.Budget) / float64(time.Millisecond)
	}
	rep.Batch = cfg.Batch
	rep.Clients = cfg.Conc
	rep.DupRatio = src.dup
	rep.DurationSeconds = elapsed.Seconds()
	if rep.Items > 0 {
		rep.ItemsPerSecond = float64(rep.Items) / elapsed.Seconds()
	}
	if denom := rep.OK + rep.Shed + rep.Timeouts; denom > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(denom)
	}
	// A coalesced request was answered without computing, like a hit.
	if n := rep.CacheHits + rep.CacheCoalesced + rep.CacheMisses; n > 0 {
		rep.CacheHitRate = float64(rep.CacheHits+rep.CacheCoalesced) / float64(n)
	}
	if len(acc.served) > 0 {
		rep.LatencyP50Ms = stats.Quantile(acc.served, 0.50)
		rep.LatencyP90Ms = stats.Quantile(acc.served, 0.90)
		rep.LatencyP99Ms = stats.Quantile(acc.served, 0.99)
		_, max := stats.MinMax(acc.served)
		rep.LatencyMaxMs = max
	}
	if len(acc.shed) > 0 {
		rep.ShedLatencyP50Ms = stats.Quantile(acc.shed, 0.50)
		rep.ShedLatencyP90Ms = stats.Quantile(acc.shed, 0.90)
		rep.ShedLatencyP99Ms = stats.Quantile(acc.shed, 0.99)
		_, max := stats.MinMax(acc.shed)
		rep.ShedLatencyMaxMs = max
	}
	if len(acc.overshoot) > 0 {
		rep.OvershootP50 = stats.Quantile(acc.overshoot, 0.50)
		rep.OvershootP99 = stats.Quantile(acc.overshoot, 0.99)
		_, max := stats.MinMax(acc.overshoot)
		rep.OvershootMax = max
	}
	return &rep, nil
}

func doSingle(client *http.Client, cfg loadConfig, rng *rand.Rand, src *trafficSource, acc *tally) {
	g, body, err := src.pick(rng)
	if err != nil {
		log.Printf("schedload: generate request: %v", err)
		acc.count(func(r *Report) { r.Requests++; r.Items++; r.TransportErrors++ })
		return
	}
	url := cfg.Addr + "/schedule?heuristic=" + cfg.Heuristic
	if cfg.Quality {
		url = cfg.Addr + "/schedule?quality=best&budget=" + cfg.Budget.String()
	}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	lat := time.Since(t0)
	if err != nil {
		acc.count(func(r *Report) { r.Requests++; r.Items++; r.TransportErrors++ })
		return
	}
	defer resp.Body.Close()
	acc.count(func(r *Report) { r.Requests++; r.Items++ })
	switch resp.StatusCode {
	case http.StatusOK:
		acc.addServed(lat)
		cacheStatus := resp.Header.Get("X-Sched-Cache")
		var sb scheduleBody
		if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
			acc.count(func(r *Report) { r.ValidationFailures++ })
			return
		}
		if err := checkSchedule(g, sb); err != nil {
			acc.count(func(r *Report) { r.ValidationFailures++ })
			return
		}
		if cfg.Quality {
			if err := checkQuality(sb); err != nil {
				acc.count(func(r *Report) { r.ValidationFailures++ })
				return
			}
			acc.addOvershoot(sb.Quality.ElapsedMs, float64(cfg.Budget)/float64(time.Millisecond))
			if sb.Quality.Proven {
				acc.count(func(r *Report) { r.ProvenOptimal++ })
			}
		}
		acc.count(func(r *Report) { r.OK++; countCache(r, cacheStatus) })
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		acc.addShed(lat)
		acc.count(func(r *Report) { r.Shed++ })
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		acc.count(func(r *Report) { r.Timeouts++ })
	default:
		io.Copy(io.Discard, resp.Body)
		acc.count(func(r *Report) { r.TransportErrors++ })
	}
}

func doBatch(client *http.Client, cfg loadConfig, rng *rand.Rand, src *trafficSource, acc *tally) {
	picked := make([]*dag.Graph, cfg.Batch)
	var buf bytes.Buffer
	buf.WriteByte('[')
	for j := range picked {
		g, body, err := src.pick(rng)
		if err != nil {
			log.Printf("schedload: generate request: %v", err)
			acc.count(func(r *Report) { r.Requests++; r.Items += cfg.Batch; r.TransportErrors++ })
			return
		}
		picked[j] = g
		if j > 0 {
			buf.WriteByte(',')
		}
		buf.Write(body)
	}
	buf.WriteByte(']')

	t0 := time.Now()
	resp, err := client.Post(cfg.Addr+"/schedule/batch?heuristic="+cfg.Heuristic, "application/json", &buf)
	lat := time.Since(t0)
	if err != nil {
		acc.count(func(r *Report) { r.Requests++; r.Items += len(picked); r.TransportErrors++ })
		return
	}
	defer resp.Body.Close()
	acc.count(func(r *Report) { r.Requests++ })
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		acc.count(func(r *Report) { r.Items += len(picked); r.TransportErrors++ })
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	seen := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var body scheduleBody
		if err := json.Unmarshal(line, &body); err != nil {
			acc.count(func(r *Report) { r.Items++; r.ValidationFailures++ })
			continue
		}
		seen++
		switch {
		case body.Error == "":
			if body.Index < 0 || body.Index >= len(picked) {
				acc.count(func(r *Report) { r.Items++; r.ValidationFailures++ })
				continue
			}
			if err := checkSchedule(picked[body.Index], body); err != nil {
				acc.count(func(r *Report) { r.Items++; r.ValidationFailures++ })
				continue
			}
			acc.count(func(r *Report) { r.Items++; r.OK++; countCache(r, body.Cache) })
		case strings.Contains(body.Error, "deadline exceeded") || strings.Contains(body.Error, "canceled"):
			acc.count(func(r *Report) { r.Items++; r.Timeouts++ })
		default:
			acc.count(func(r *Report) { r.Items++; r.TransportErrors++ })
		}
	}
	// The whole-request latency belongs to the served bucket: the
	// request was admitted and streamed results.
	acc.addServed(lat)
	if err := sc.Err(); err != nil || seen != len(picked) {
		acc.count(func(r *Report) { r.TransportErrors++ })
	}
}
