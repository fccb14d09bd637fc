// Package serve is the batched, backpressured scheduling pipeline
// behind schedserve. A fixed pool of workers pulls requests from a
// bounded admission queue; per-request deadlines propagate through
// context.Context into heuristics.RunContext, so a request that is
// cancelled or expires stops burning CPU at the next topo-order poll.
//
// Admission policy, all of it in admit:
//
//   - single requests are admitted without blocking — a full queue
//     sheds the request immediately with ErrQueueFull so the HTTP
//     layer can answer 429 with a Retry-After hint;
//   - batch items are admitted with a blocking send (bounded by the
//     request context), which is the backpressure that keeps a large
//     batch from flooding the queue past its depth;
//   - after Close, every submission is shed with ErrClosed.
//
// Counter contract, relied on by the soak test, on every path:
//
//	submitted = admitted + shed
//	admitted  = completed + failed + cancelled   (once drained)
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
)

// ErrQueueFull is returned by Schedule when the admission queue is at
// capacity. The request did no scheduling work.
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("serve: pipeline closed")

// Config sizes the pipeline. Zero values pick defaults.
type Config struct {
	// Workers is the number of scheduling goroutines. Default
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue. Default 4×Workers.
	QueueDepth int
	// Cache, when non-nil, short-circuits requests whose canonical
	// graph content was already scheduled by the same heuristic: hits
	// are served ahead of admission and never shed. Misses schedule
	// the canonically relabeled graph through the normal queue, so
	// every member of an isomorphism class gets the byte-identical
	// schedule (modulo its own node labels).
	Cache *schedcache.Cache
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return c
}

// CacheStatus says whether a result came from the schedule cache. The
// non-empty values are schedcache.Status strings.
type CacheStatus string

const (
	// CacheNone: the pipeline has no cache configured.
	CacheNone CacheStatus = ""
	// CacheHit: served from a stored entry without scheduling.
	CacheHit CacheStatus = "hit"
	// CacheCoalesced: waited on a concurrent identical request and
	// shared its result without scheduling.
	CacheCoalesced CacheStatus = "coalesced"
	// CacheMiss: this request computed the schedule.
	CacheMiss CacheStatus = "miss"
)

func cacheStatus(st schedcache.Status) CacheStatus { return CacheStatus(st.String()) }

// Result is one finished scheduling request. Best is set only for
// quality-tier (anytime) requests and carries the proven-gap
// provenance beside the schedule.
type Result struct {
	Index    int // position in the submitting batch; 0 for singles
	Schedule *sched.Schedule
	Best     *anytime.Result
	Cache    CacheStatus
	Err      error
}

// task is one unit of worker work. admit stamps ctx and enq.
type task struct {
	ctx   context.Context
	s     heuristics.Scheduler
	g     *dag.Graph
	index int
	// quality selects the anytime optimizer instead of s; budget is its
	// refinement allowance (the request context still bounds the run).
	quality bool
	budget  time.Duration
	enq     time.Time
	done    chan<- Result // buffered by the submitter; workers never block
}

// Pipeline is the worker pool. Create with New, shut down with Close.
type Pipeline struct {
	cfg   Config
	queue chan task
	wg    sync.WaitGroup

	// mu guards closed and, as a reader lock, every send to queue:
	// Close takes the write lock before closing the channel, so no
	// sender can race a send against the close.
	mu     sync.RWMutex
	closed bool

	cache *schedcache.Cache

	// Service-time ledger for RetryAfter, kept separately from the
	// obs histogram: the registry may be disabled (histograms then
	// drop observations), and obs.Default() is shared across
	// pipelines, so neither is a sound estimator input.
	svcCount atomic.Uint64
	svcNanos atomic.Int64

	depth     *obs.Gauge
	queueWait *obs.Histogram
	service   *obs.Histogram
	submitted *obs.Counter
	admitted  *obs.Counter
	shed      *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
}

// New starts a pipeline with cfg's worker pool, registering its
// instruments on reg (obs.Default() is the usual choice).
func New(cfg Config, reg *obs.Registry) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:   cfg,
		queue: make(chan task, cfg.QueueDepth),
		cache: cfg.Cache,

		depth: reg.Gauge("serve_queue_depth",
			"Requests waiting in the admission queue."),
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"Time from admission to a worker picking the request up.", obs.DefTimeBuckets),
		service: reg.Histogram("serve_service_seconds",
			"Worker time spent scheduling one request.", obs.DefTimeBuckets),
		submitted: reg.Counter("serve_submitted_total",
			"Requests offered to the pipeline."),
		admitted: reg.Counter("serve_admitted_total",
			"Requests accepted into the queue."),
		shed: reg.Counter("serve_shed_total",
			"Requests rejected because the queue was full."),
		completed: reg.Counter("serve_completed_total",
			"Requests that produced a validated schedule."),
		failed: reg.Counter("serve_failed_total",
			"Requests that errored for reasons other than cancellation."),
		cancelled: reg.Counter("serve_cancelled_total",
			"Requests abandoned because their context was cancelled or expired."),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the configured pool size.
func (p *Pipeline) Workers() int { return p.cfg.Workers }

// QueueDepth reports the configured admission-queue bound.
func (p *Pipeline) QueueDepth() int { return p.cfg.QueueDepth }

// Schedule runs s on g through the pipeline, and through the cache
// when one is configured; the status reports whether the schedule came
// from it (CacheNone without a cache). Admission never blocks: a full
// queue returns ErrQueueFull immediately. The call then waits for the
// worker, or for ctx — whichever comes first. On cancellation the
// queued work is still drained by a worker (and counted), but the
// caller gets ctx's error right away.
func (p *Pipeline) Schedule(ctx context.Context, s heuristics.Scheduler, g *dag.Graph) (*sched.Schedule, CacheStatus, error) {
	r := p.resolve(ctx, task{s: s, g: g}, false)
	return r.Schedule, r.Cache, r.Err
}

// admit offers t to the queue under ctx. It is the only code that
// sends on p.queue or moves the admission ledger: every call counts
// one submission and exactly one of admitted or shed. A blocking
// admission waits for queue space until ctx ends; a non-blocking one
// sheds a full queue with ErrQueueFull. After Close it sheds with
// ErrClosed either way. t's result arrives on t.done, which must have
// room for it so workers never block on delivery.
func (p *Pipeline) admit(ctx context.Context, t task, blocking bool) error {
	t.ctx, t.enq = ctx, time.Now()
	p.submitted.Inc()
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		p.shed.Inc()
		return ErrClosed
	}
	if blocking {
		// Blocking admission under the read lock is the backpressure
		// contract. A blocked submitter can stall Close's write lock
		// only until a worker (which never takes p.mu) drains a slot
		// or ctx fires, so liveness holds and closed/queue stay
		// consistent.
		select { //lint:lockheld
		case p.queue <- t:
		case <-ctx.Done():
			p.shed.Inc()
			return ctx.Err()
		}
	} else {
		select {
		case p.queue <- t:
		default:
			p.shed.Inc()
			return ErrQueueFull
		}
	}
	p.admitted.Inc()
	p.depth.Add(1)
	return nil
}

// run admits t and waits for its worker's result, or for ctx.
func (p *Pipeline) run(ctx context.Context, t task, blocking bool) Result {
	done := make(chan Result, 1)
	t.done = done
	if err := p.admit(ctx, t, blocking); err != nil {
		return Result{Index: t.index, Err: err}
	}
	select {
	case r := <-done:
		return r
	case <-ctx.Done():
		return Result{Index: t.index, Err: ctx.Err()}
	}
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	// Each task is scheduled independently; the schedule produced for a
	// given graph does not depend on which worker dequeued it or in what
	// order — receive ordering only decides who does the work.
	for t := range p.queue { //lint:sorted
		p.depth.Add(-1)
		p.queueWait.Observe(time.Since(t.enq).Seconds())
		if err := t.ctx.Err(); err != nil {
			// Died in the queue: no scheduling work, no service time.
			p.cancelled.Inc()
			t.done <- Result{Index: t.index, Err: err}
			continue
		}
		t0 := time.Now()
		var sc *sched.Schedule
		var best *anytime.Result
		var err error
		if t.quality {
			best, err = anytime.Optimize(t.ctx, t.g, anytime.Options{Budget: t.budget})
			if best != nil {
				sc = best.Schedule
			}
		} else {
			sc, err = heuristics.RunContext(t.ctx, t.s, t.g)
		}
		elapsed := time.Since(t0)
		p.service.Observe(elapsed.Seconds())
		p.svcCount.Add(1)
		p.svcNanos.Add(int64(elapsed))
		switch {
		case err == nil:
			p.completed.Inc()
		case heuristics.IsCancellation(err):
			p.cancelled.Inc()
			sc, best = nil, nil
		default:
			p.failed.Inc()
		}
		t.done <- Result{Index: t.index, Schedule: sc, Best: best, Err: err}
	}
}

// RetryAfter estimates how long a shed client should wait before
// retrying: the observed mean service time times the number of
// requests one worker slot has in front of it. Clamped to [1s, 30s];
// 1s on a cold pipeline that has completed nothing yet.
//
// The estimate reads the pipeline's own atomic service-time ledger,
// not the obs histogram: a freshly booted server with the registry
// disabled (or several pipelines sharing obs.Default()) would
// otherwise compute the hint from zero or foreign observations, and
// the all-integer math cannot produce NaN or a zero header value.
func (p *Pipeline) RetryAfter() time.Duration {
	n := p.svcCount.Load()
	if n == 0 {
		return time.Second
	}
	mean := p.svcNanos.Load() / int64(n)
	est := time.Duration(mean * int64(p.cfg.QueueDepth) / int64(p.cfg.Workers))
	if est < time.Second {
		return time.Second
	}
	if est > 30*time.Second {
		return 30 * time.Second
	}
	return est
}

// Close stops admission and waits for the workers to drain every
// queued task. Safe to call twice; submissions after Close get
// ErrClosed.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
