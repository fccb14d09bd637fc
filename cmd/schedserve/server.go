package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"
)

// serverOptions configures the HTTP layer and the scheduling pipeline
// behind it.
type serverOptions struct {
	// Timeout bounds one /schedule or /schedule/batch request end to
	// end; 0 disables.
	Timeout time.Duration
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// Workers and QueueDepth size the serve.Pipeline; zero values
	// pick the pipeline defaults (GOMAXPROCS workers, 4× queue).
	Workers    int
	QueueDepth int
	// CacheEntries and CacheBytes size the content-addressed schedule
	// cache. CacheEntries 0 disables caching entirely; CacheBytes 0
	// with caching enabled picks the schedcache default budget.
	CacheEntries int
	CacheBytes   int64
}

// server wires the scheduling endpoints to the pipeline and the obs
// registry.
type server struct {
	reg  *obs.Registry
	opts serverOptions
	pipe *serve.Pipeline
	mux  *http.ServeMux
}

const defaultMaxBody = 8 << 20

func newServer(reg *obs.Registry, opts serverOptions) *server {
	if opts.MaxBody <= 0 {
		opts.MaxBody = defaultMaxBody
	}
	var cache *schedcache.Cache
	if opts.CacheEntries > 0 {
		cache = schedcache.New(schedcache.Config{
			MaxEntries: opts.CacheEntries,
			MaxBytes:   opts.CacheBytes,
		})
	}
	s := &server{
		reg:  reg,
		opts: opts,
		pipe: serve.New(serve.Config{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			Cache:      cache,
		}, reg),
		mux: http.NewServeMux(),
	}

	s.mux.Handle("/schedule", s.instrument("/schedule", http.HandlerFunc(s.handleSchedule)))
	s.mux.Handle("/schedule/batch", s.instrument("/schedule/batch", http.HandlerFunc(s.handleScheduleBatch)))
	s.mux.Handle("/heuristics", s.instrument("/heuristics", http.HandlerFunc(s.handleHeuristics)))
	s.mux.Handle("/metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))
	s.mux.Handle("/healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the root handler.
func (s *server) Handler() http.Handler { return s.mux }

// Close drains the scheduling pipeline. Call after the HTTP server has
// stopped accepting requests: handlers submit to the pipeline, so the
// order is hs.Shutdown first, then Close.
func (s *server) Close() { s.pipe.Close() }

// requestCtx derives the per-request deadline context. The deadline
// rides the context through the pipeline into the heuristics, so an
// expired request stops consuming a worker at the next poll.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.Timeout)
	}
	return r.Context(), func() {}
}

// scheduleError maps pipeline errors onto status codes: full queue →
// 429 with a Retry-After estimate (load shedding), expired or dropped
// request → 503, anything else → 500 (the graph already validated, so
// the failure is the scheduler's).
func (s *server) scheduleError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		ra := s.pipe.RetryAfter()
		secs := int((ra + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
	case heuristics.IsCancellation(err):
		httpError(w, http.StatusServiceUnavailable, "request timed out")
	case errors.Is(err, serve.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "shutting down")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps h with a per-path duration histogram and a
// per-(path, status) request counter. Paths are the fixed routes
// above and status codes are a small finite set, so cardinality stays
// bounded. Each path's counters are resolved once per status code and
// reused, so a request takes neither the registry mutex nor a label
// rendering.
func (s *server) instrument(path string, h http.Handler) http.Handler {
	dur := s.reg.Histogram("serve_request_seconds",
		"End-to-end request handling time.", obs.DefTimeBuckets, obs.L("path", path))
	var byCode sync.Map // int -> *obs.Counter
	requests := func(code int) *obs.Counter {
		if c, ok := byCode.Load(code); ok {
			return c.(*obs.Counter)
		}
		c, _ := byCode.LoadOrStore(code, s.reg.Counter("serve_requests_total", "Requests by path and status code.",
			obs.L("path", path), obs.L("code", strconv.Itoa(code))))
		return c.(*obs.Counter)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		dur.Observe(time.Since(t0).Seconds())
		requests(sw.code).Inc()
	})
}

// handleSchedule schedules one DAG: POST a graph as JSON, pick the
// heuristic with ?heuristic= (default MCP), get the timed schedule
// back as JSON, or as a text Gantt chart with ?format=gantt. ?trace=1
// embeds the request's span trace in the JSON response.
//
// ?quality=best selects the anytime tier instead of a single
// heuristic: the response then carries a "quality" block with the
// proven lower bound and optimality gap; ?budget= bounds the
// refinement time (default 50ms, never beyond the request deadline).
func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST a DAG as JSON")
		return
	}
	query := r.URL.Query()
	qp, err := parseQuality(query, s.opts.Timeout)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	name := query.Get("heuristic")
	if qp.enabled && name != "" {
		httpError(w, http.StatusBadRequest,
			"quality=best runs the whole heuristic portfolio; drop the heuristic parameter")
		return
	}
	if name == "" {
		name = "MCP"
	}
	var sc heuristics.Scheduler
	if qp.enabled {
		name = serve.QualityBest
	} else {
		sc, err = heuristics.New(name)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	tr := obs.NewTrace("schedule " + name)
	dec := tr.Span("decode")
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.opts.MaxBody), r.ContentLength)
	var g *dag.Graph
	if err == nil {
		g, err = dag.DecodeJSON(body)
	}
	dec.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad DAG: "+err.Error())
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	run := tr.Span("schedule")
	var schedule *sched.Schedule
	var cacheStatus serve.CacheStatus
	var best *anytime.Result
	if qp.enabled {
		best, cacheStatus, err = s.pipe.ScheduleBest(ctx, g, qp.budget) //lint:boundedlabel quality labels are the QualityBest constant plus Scheduler.Name(), a finite registry set
		if best != nil {
			schedule = best.Schedule
		}
	} else {
		schedule, cacheStatus, err = s.pipe.Schedule(ctx, sc, g) //lint:boundedlabel cache labels use Scheduler.Name(), a finite registry set
	}
	run.End()
	if err != nil {
		s.scheduleError(w, err)
		return
	}
	if cacheStatus != serve.CacheNone {
		w.Header().Set("X-Sched-Cache", string(cacheStatus))
	}

	enc := tr.Span("encode")
	defer enc.End()
	if query.Get("format") == "gantt" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "heuristic %s on %q\n%s", name, g.Name(), schedule.Gantt(80))
		return
	}
	var trace []byte
	if query.Get("trace") == "1" {
		var tb bytes.Buffer
		if err := tr.WriteJSON(&tb); err == nil {
			trace = traceJSON(bytes.TrimSpace(tb.Bytes()))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	// A write error means the client went away after the headers:
	// there is no status left to send.
	_, _ = w.Write(encodeSchedule(name, g, schedule, best, qp.budget, trace))
}

// maxInitialBody caps the buffer readBody starts with.
const maxInitialBody = 64 << 10

// readBody reads r, the request body, to EOF. The buffer starts at
// min(Content-Length, 64 KiB) and grows only as bytes arrive, so a
// client that declares a large body and sends a few bytes pins no more
// than it sent.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	size := int64(bytes.MinRead)
	if contentLength > 0 {
		size = min(contentLength, maxInitialBody)
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// handleScheduleBatch schedules an array of DAGs: POST a JSON array of
// graphs, get back one NDJSON line per graph, in input order, streamed
// as results complete. Items fan out across the worker pool; admission
// is blocking per item, so a batch larger than the queue trickles in
// at the pool's pace instead of displacing single requests wholesale.
// A cancelled or expired item yields an error line, never a partial
// schedule.
func (s *server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON array of DAGs")
		return
	}
	for _, p := range []string{"quality", "budget"} {
		if _, has := r.URL.Query()[p]; has {
			httpError(w, http.StatusBadRequest,
				"the quality tier is single-request only; "+p+" is not accepted on /schedule/batch")
			return
		}
	}
	name := r.URL.Query().Get("heuristic")
	if name == "" {
		name = "MCP"
	}
	if _, err := heuristics.New(name); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var graphs []*dag.Graph
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err := dec.Decode(&graphs); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch: "+err.Error())
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad batch: trailing data after the array")
		return
	}
	if len(graphs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	for i, g := range graphs {
		if g == nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("batch item %d is null", i))
			return
		}
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var line []byte
	// Errors from Write/emit mean the client went away; ScheduleBatch
	// stops emitting and drains, and there is no status left to send.
	_ = s.pipe.ScheduleBatch(ctx,
		func() heuristics.Scheduler { sc, _ := heuristics.New(name); return sc },
		graphs,
		func(res serve.Result) error {
			line = appendBatchLine(line[:0], res, name, graphs[res.Index])
			if _, err := w.Write(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
}

// handleHeuristics lists the registered scheduler names.
func (s *server) handleHeuristics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(heuristics.Names())
}

// handleMetrics serves the registry in the Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, "schedserve: "+msg, code)
}
