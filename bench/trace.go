package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
)

// The traced run measures every layer on the workload's own inputs:
// the corpus graphs for corpus, the first requests of the stream for
// the serve workloads. Every workload reports every per-layer metric;
// README.md maps each to the end-to-end metric it should move and says
// which layers lie off a workload's blocking path. Spans are recorded
// from this package around the calls into each layer, kept in memory
// and written out with the result.
const (
	// traceGraphs bounds the serve workloads' library pass; the corpus
	// traces all of its graphs.
	traceGraphs = 1000
	// traceRequests bounds the in-process replay and the unloaded pass.
	traceRequests = 4000
	// relookups re-submits the newest entries to time the cache's hit
	// path on workloads whose stream never repeats.
	relookups = 500
	// portfolioGraphs is how many graphs the quality tier's seeding is
	// timed on.
	portfolioGraphs = 200
)

// span is one timed call into a layer. ID is the graph or request
// number; Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so
// warm-up work runs through the same code untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// layer totals the spans of one name.
type layer struct {
	n           int
	total, self time.Duration
}

func (l layer) meanUs(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond) / float64(l.n)
}

// layers totals spans by name. A span's self time is its duration
// minus the time its children cover; children never overlap.
func (t *tracer) layers() map[string]layer {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.n++
		l.total += time.Duration(s.End - s.Start)
		l.self += time.Duration(s.End - s.Start - covered[i])
		out[s.Name] = l
	}
	return out
}

// source is a request population: request k's body and the graph it
// carries.
type source interface {
	body(k int64) ([]byte, error)
	graph(k int64) (*dag.Graph, error)
}

// graphSource serves graphs verbatim: request k is graph k mod len.
type graphSource []*dag.Graph

func (gs graphSource) body(k int64) ([]byte, error) { return json.Marshal(gs[k%int64(len(gs))]) }

func (gs graphSource) graph(k int64) (*dag.Graph, error) { return gs[k%int64(len(gs))], nil }

// traced is one traced run's inputs and state.
type traced struct {
	t      *tracer
	res    *result
	defs   []metricDef
	graphs []*dag.Graph
	// src is the replayed population, warm its warm-up requests and
	// fresh a content-unique population of the same graphs for the
	// quality tier.
	src, fresh source
	warm       []int64
	requests   int
	seconds    int
}

func runTraced(name string, cfg config, res *result) error {
	tr := &traced{t: &tracer{t0: time.Now()}, res: res, defs: perLayer(), seconds: cfg.seconds}
	if name == "corpus" {
		graphs, _, err := corpusGraphs(cfg.seed, 1, nil)
		if err != nil {
			return err
		}
		tr.graphs = graphs
		tr.src, tr.fresh = graphSource(graphs), graphSource(graphs)
		tr.requests = min(len(graphs), traceRequests)
	} else {
		s, err := newStream(cfg.seed, serveSpecs[name].dup)
		if err != nil {
			return err
		}
		for k := int64(0); k < traceGraphs; k++ {
			g, err := s.graph(k)
			if err != nil {
				return err
			}
			tr.graphs = append(tr.graphs, g)
		}
		tr.src, tr.fresh, tr.warm = s, &stream{seed: s.seed, bases: s.bases}, s.warmNumbers()
		tr.requests = traceRequests
	}
	var want map[string]string
	if name == "corpus" && cfg.seed == goldenSeed {
		want = goldenHashes
	}
	if err := tr.library(want); err != nil {
		return err
	}
	inproc, err := tr.replay()
	if err != nil {
		return err
	}
	if err := tr.service(inproc); err != nil {
		return err
	}
	for n, l := range tr.t.layers() {
		res.Details["span."+n] = map[string]any{"count": l.n, "total_s": l.total.Seconds(), "self_s": l.self.Seconds()}
	}
	res.spans = tr.t.spans
	return nil
}

// dagAnalyses are the getters timed one by one, in analyses' order.
var dagAnalyses = []func(g *dag.Graph) error{
	func(g *dag.Graph) error { g.CSR(); return nil },
	func(g *dag.Graph) error { _, err := g.TopoOrder(); return err },
	func(g *dag.Graph) error { _, err := g.BLevels(); return err },
	func(g *dag.Graph) error { _, err := g.BLevelsNoComm(); return err },
	func(g *dag.Graph) error { _, err := g.TLevels(); return err },
	func(g *dag.Graph) error { _, err := g.ALAPTimes(); return err },
	func(g *dag.Graph) error { _, err := g.CriticalPath(); return err },
	func(g *dag.Graph) error { _, err := g.Descendants(); return err },
	func(g *dag.Graph) error { _, err := g.Ancestors(); return err },
}

// warm computes and caches every analysis on g.
func warm(g *dag.Graph) error {
	for _, a := range dagAnalyses {
		if err := a(g); err != nil {
			return err
		}
	}
	if _, err := g.TopoPositions(); err != nil {
		return err
	}
	_, err := g.CriticalPathLength()
	return err
}

// library traces the layers under the heuristics: an untraced round
// (the baseline for the tracing overhead, and the allocation counts), a
// traced round with run, build and validate spans per (graph,
// heuristic), placement on warm graphs, each analysis on a cold graph,
// and the quality tier's portfolio seeding. want, when set, pins the
// untraced round's schedule hashes; the traced round must reproduce
// them either way.
func (tr *traced) library(want map[string]string) error {
	names := heuristics.Names()
	var ms runtime.MemStats
	var untraced, tracedWall, spanSum time.Duration
	hashes := map[string]string{}
	for _, name := range names {
		s, err := heuristics.New(name)
		if err != nil {
			return err
		}
		clones := cold(tr.graphs)
		h := newScheduleHash()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for _, g := range clones {
			sc, err := heuristics.Run(s, g)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, g.Name(), err)
			}
			h.add(sc)
		}
		untraced += time.Since(t0)
		runtime.ReadMemStats(&ms)
		tr.res.set(tr.defs, "heuristics."+name+".allocs", float64(ms.Mallocs-m0)/float64(len(clones)))
		hashes[name] = h.String()
		tr.res.Attempted += len(clones)
	}
	if want == nil {
		want = hashes
	} else if err := checkHashes(hashes, want); err != nil {
		tr.res.fail(1, fmt.Errorf("untraced round: %w", err))
	}

	got := map[string]string{}
	for _, name := range names {
		s, err := heuristics.New(name)
		if err != nil {
			return err
		}
		pair, run := "heuristics."+name, "heuristics."+name+".run"
		clones := cold(tr.graphs)
		h := newScheduleHash()
		runtime.GC()
		t0 := time.Now()
		for i, g := range clones {
			id := int64(i)
			p := tr.t.begin(pair, id, -1)
			sp := tr.t.begin(run, id, p)
			pl, err := s.Schedule(g)
			spanSum += tr.t.end(sp)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, g.Name(), err)
			}
			sp = tr.t.begin("sched.build", id, p)
			sc, err := sched.Build(g, pl)
			spanSum += tr.t.end(sp)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, g.Name(), err)
			}
			sp = tr.t.begin("sched.validate", id, p)
			err = sc.Validate()
			spanSum += tr.t.end(sp)
			tr.t.end(p)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, g.Name(), err)
			}
			h.add(sc)
		}
		tracedWall += time.Since(t0)
		got[name] = h.String()
		tr.res.Attempted += len(clones)
	}
	if err := checkHashes(got, want); err != nil {
		tr.res.fail(1, fmt.Errorf("traced round: %w", err))
	}

	for _, name := range names {
		s, err := heuristics.New(name)
		if err != nil {
			return err
		}
		place := "heuristics." + name + ".place"
		runtime.GC()
		for i, g := range tr.graphs {
			g = g.Clone()
			if err := warm(g); err != nil {
				return err
			}
			sp := tr.t.begin(place, int64(i), -1)
			_, err := s.Schedule(g)
			tr.t.end(sp)
			if err != nil {
				return fmt.Errorf("%s on warm %s: %w", name, g.Name(), err)
			}
		}
	}

	spans := make([]string, len(analyses))
	for j, a := range analyses {
		spans[j] = "dag." + a
	}
	for i, g := range cold(tr.graphs) {
		p := tr.t.begin("dag.analyses", int64(i), -1)
		for j, a := range dagAnalyses {
			sp := tr.t.begin(spans[j], int64(i), p)
			err := a(g)
			tr.t.end(sp)
			if err != nil {
				return err
			}
		}
		tr.t.end(p)
	}

	for i, g := range cold(tr.graphs[:min(len(tr.graphs), portfolioGraphs)]) {
		sp := tr.t.begin("heuristics.portfolio", int64(i), -1)
		for _, name := range names {
			s, err := heuristics.New(name)
			if err == nil {
				_, err = heuristics.Run(s, g)
			}
			if err != nil {
				return fmt.Errorf("portfolio %s on %s: %w", name, g.Name(), err)
			}
		}
		tr.t.end(sp)
	}

	ls := tr.t.layers()
	for _, name := range names {
		run, place := ls["heuristics."+name+".run"], ls["heuristics."+name+".place"]
		tr.res.set(tr.defs, "heuristics."+name+".run_us", run.meanUs(run.total))
		tr.res.set(tr.defs, "heuristics."+name+".place_us", place.meanUs(place.total))
	}
	for _, n := range append([]string{"analyses"}, analyses...) {
		l := ls["dag."+n]
		tr.res.set(tr.defs, "dag."+n+"_us", l.meanUs(l.total))
	}
	for _, n := range []string{"sched.build", "sched.validate", "heuristics.portfolio"} {
		tr.res.set(tr.defs, n+"_us", ls[n].meanUs(ls[n].total))
	}
	tr.res.set(tr.defs, "trace.overhead_pct", 100*float64(tracedWall-untraced)/float64(untraced))
	tr.res.Details["untraced_round_s"] = untraced.Seconds()
	tr.res.Details["traced_round_s"] = tracedWall.Seconds()
	tr.res.Details["traced_run_build_validate_s"] = spanSum.Seconds()
	tr.res.Details["hashes"] = hashes
	return nil
}

// replay pushes the population through the service's layers in
// process, in schedserve's order: decode, canonical hash, then
// schedcache's Do, whose computation on a miss is the canonical clone,
// MCP, Build and Validate. The cache is sized like schedserve's
// defaults. It returns each request's in-process time.
func (tr *traced) replay() ([]time.Duration, error) {
	cache := schedcache.New(schedcache.Config{MaxEntries: 4096, MaxBytes: 64 << 20})
	mcp, err := heuristics.New("MCP")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	one := func(t *tracer, k int64, body []byte) (time.Duration, error) {
		req := t.begin("request", k, -1)
		sp := t.begin("dag.decode", k, req)
		g, err := dag.ReadJSON(bytes.NewReader(body))
		t.end(sp)
		if err != nil {
			return 0, err
		}
		sp = t.begin("dag.canon", k, req)
		key := schedcache.Key{Fingerprint: g.CanonicalHash(), Heuristic: mcp.Name()}
		t.end(sp)
		do := t.begin("schedcache.do", k, req)
		_, st, err := cache.Do(ctx, key, g.CanonicalEncoding(), func(context.Context) (*sched.Schedule, error) {
			sp := t.begin("dag.canon_clone", k, do)
			cg := g.CanonicalClone()
			t.end(sp)
			sp = t.begin("replay.schedule", k, do)
			pl, err := mcp.Schedule(cg)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("replay.build", k, do)
			sc, err := sched.Build(cg, pl)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("replay.validate", k, do)
			err = sc.Validate()
			t.end(sp)
			return sc, err
		})
		if t != nil {
			t.spans[do].Name = "schedcache." + st.String()
		}
		t.end(do)
		return t.end(req), err
	}

	for _, k := range tr.warm {
		body, err := tr.src.body(k)
		if err == nil {
			_, err = one(nil, k, body)
		}
		if err != nil {
			return nil, err
		}
	}
	bodies := make([][]byte, tr.requests)
	inproc := make([]time.Duration, tr.requests)
	runtime.GC()
	for k := range inproc {
		if bodies[k], err = tr.src.body(int64(k)); err != nil {
			return nil, err
		}
		if inproc[k], err = one(tr.t, int64(k), bodies[k]); err != nil {
			return nil, fmt.Errorf("replay request %d: %w", k, err)
		}
	}
	tr.res.Attempted += tr.requests
	for k := tr.requests - min(tr.requests, relookups); k < tr.requests; k++ {
		g, err := dag.ReadJSON(bytes.NewReader(bodies[k]))
		if err != nil {
			return nil, err
		}
		key := schedcache.Key{Fingerprint: g.CanonicalHash(), Heuristic: mcp.Name()}
		sp := tr.t.begin("schedcache.hit", int64(k), -1)
		_, st, err := cache.Do(ctx, key, g.CanonicalEncoding(), func(context.Context) (*sched.Schedule, error) {
			return nil, fmt.Errorf("request %d was evicted before its re-lookup", k)
		})
		tr.t.end(sp)
		if err != nil || st != schedcache.Hit {
			return nil, fmt.Errorf("re-lookup of request %d: %v (%v)", k, st, err)
		}
	}

	// Allocation counts need the heap statistics, which stop the world:
	// decode the same bodies again, untraced.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for _, b := range bodies {
		if _, err := dag.ReadJSON(bytes.NewReader(b)); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	tr.res.set(tr.defs, "dag.decode_allocs", float64(ms.Mallocs-m0)/float64(len(bodies)))

	ls := tr.t.layers()
	for metric, l := range map[string]layer{
		"dag.decode_us": ls["dag.decode"], "dag.canon_us": ls["dag.canon"], "dag.canon_clone_us": ls["dag.canon_clone"],
		"schedcache.hit_us": ls["schedcache.hit"], "schedcache.miss_us": ls["schedcache.miss"],
	} {
		tr.res.set(tr.defs, metric, l.meanUs(l.self))
	}
	return inproc, nil
}

// service drives a fresh schedserve: the replayed requests one at a
// time over one connection (unloaded latency, the residual the
// in-process layers do not explain, response size and cache hit
// ratio), then quality requests on fresh content from two connections
// for a third of the run's seconds (the anytime tier's counters).
func (tr *traced) service(inproc []time.Duration) error {
	bin, err := serverBinary()
	if err != nil {
		return err
	}
	srv, err := startServer(bin)
	if err != nil {
		return err
	}
	plain, best := tr.drive(srv)
	if err := srv.stop(); err != nil {
		return err
	}

	var lat, resid, sizes []float64
	hits, misses := 0, 0
	for i, v := range checkAll(tr.src, plain, false, tr.res) {
		ex := plain[i]
		if ex.k < 0 || !v.ok {
			continue
		}
		lat = append(lat, float64(ex.lat)/float64(time.Microsecond))
		resid = append(resid, float64(ex.lat-inproc[ex.k])/float64(time.Microsecond))
		sizes = append(sizes, float64(len(ex.body)))
		switch ex.cache {
		case "hit":
			hits++
		case "miss":
			misses++
		}
	}
	tr.res.set(tr.defs, "serve.unloaded_us", median(lat))
	tr.res.set(tr.defs, "serve.residual_us", median(resid))
	tr.res.set(tr.defs, "serve.resp_bytes", mean(sizes))
	tr.res.set(tr.defs, "schedcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))

	var gens, imps, over []float64
	for _, v := range checkAll(tr.fresh, best, true, tr.res) {
		if q := v.quality; q != nil {
			gens = append(gens, float64(q.Generations))
			imps = append(imps, float64(q.Improvements))
			over = append(over, q.ElapsedMs/q.BudgetMs-1)
		}
	}
	tail := tailQuantile(len(over))
	tr.res.set(tr.defs, "anytime.generations", median(gens))
	tr.res.set(tr.defs, "anytime.improvements", mean(imps))
	tr.res.set(tr.defs, "anytime.overshoot_p99", quantile(over, tail))
	tr.res.Details["quality_samples"] = len(over)
	tr.res.Details["overshoot_tail_q"] = tail
	return nil
}

func (tr *traced) drive(srv *server) (plain, best []exchange) {
	one := newClient(1)
	defer one.CloseIdleConnections()
	url := srv.url + serveSpec{}.path()
	ks := append([]int64(nil), tr.warm...)
	for k := 0; k < tr.requests; k++ {
		ks = append(ks, int64(k))
	}
	plain = drive(one, url, tr.src, 1, each(ks))

	two := newClient(serveConns)
	defer two.CloseIdleConnections()
	var k atomic.Int64
	end := time.Now().Add(time.Duration(tr.seconds) * time.Second / 3)
	best = drive(two, srv.url+serveSpec{quality: true}.path(), tr.fresh, serveConns, until(&k, end))
	return plain, best
}
