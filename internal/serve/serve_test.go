package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/mcp"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/serve"
)

// blockSched is a plain (context-oblivious) scheduler that parks in
// Schedule until released, signalling on started when a worker picks
// it up. It stands in for a long-running heuristic.
type blockSched struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockSched) Name() string { return "BLOCK" }

func (b *blockSched) Schedule(g *dag.Graph) (*sched.Placement, error) {
	if b.started != nil {
		b.started <- struct{}{}
	}
	<-b.release
	return sched.Serial(g)
}

func tinyGraph() *dag.Graph {
	g := dag.New("tiny")
	a := g.AddNode(3)
	b := g.AddNode(2)
	g.MustAddEdge(a, b, 1)
	return g
}

func newTestPipeline(t *testing.T, cfg serve.Config) (*serve.Pipeline, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	p := serve.New(cfg, reg)
	t.Cleanup(p.Close)
	return p, reg
}

// waitCounter polls until the counter reaches want or the deadline
// passes; counters are bumped by workers asynchronously.
func waitCounter(t *testing.T, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkLedger asserts that the pipeline counted want submissions and
// that each was either admitted or shed.
func checkLedger(t *testing.T, reg *obs.Registry, want uint64) {
	t.Helper()
	submitted := reg.Counter("serve_submitted_total", "").Value()
	admitted := reg.Counter("serve_admitted_total", "").Value()
	shed := reg.Counter("serve_shed_total", "").Value()
	if submitted != want || submitted != admitted+shed {
		t.Errorf("submitted = %d (want %d), admitted = %d, shed = %d: want submitted = admitted + shed",
			submitted, want, admitted, shed)
	}
}

func TestScheduleShedsWhenQueueFull(t *testing.T) {
	p, reg := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 1})
	g := tinyGraph()
	bs := &blockSched{started: make(chan struct{}, 2), release: make(chan struct{})}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, _, errs[0] = p.Schedule(context.Background(), bs, g) }()
	<-bs.started // the single worker is now parked inside Schedule
	wg.Add(1)
	go func() { defer wg.Done(); _, _, errs[1] = p.Schedule(context.Background(), bs, g) }()
	waitCounter(t, reg.Counter("serve_admitted_total", ""), 2) // second request sits in the queue

	if _, _, err := p.Schedule(context.Background(), bs, g); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("third request: err = %v, want ErrQueueFull", err)
	}
	if ra := p.RetryAfter(); ra < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", ra)
	}

	close(bs.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if got := reg.Counter("serve_shed_total", "").Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
	if got := reg.Counter("serve_submitted_total", "").Value(); got != 3 {
		t.Errorf("submitted = %d, want 3", got)
	}
}

func TestScheduleDeadlineReturnsEarly(t *testing.T) {
	p, reg := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 4})
	bs := &blockSched{release: make(chan struct{})}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := p.Schedule(ctx, bs, tinyGraph())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("caller waited %v for a 30ms deadline", elapsed)
	}

	// The worker is still parked in the context-oblivious scheduler;
	// once released, RunContext's post-check must discard the stale
	// placement and count a cancellation, not a completion.
	close(bs.release)
	waitCounter(t, reg.Counter("serve_cancelled_total", ""), 1)
	if got := reg.Counter("serve_completed_total", "").Value(); got != 0 {
		t.Errorf("completed = %d, want 0", got)
	}
}

func TestScheduleBatchEmitsInInputOrder(t *testing.T) {
	p, reg := newTestPipeline(t, serve.Config{Workers: 4, QueueDepth: 4})
	rng := rand.New(rand.NewSource(7))
	const n = 24 // several times the queue depth: exercises blocking admission
	graphs := make([]*dag.Graph, n)
	for i := range graphs {
		graphs[i] = schedtest.RandomDAG(rng, 10+rng.Intn(30), 0.2)
	}

	var got []serve.Result
	err := p.ScheduleBatch(context.Background(),
		func() heuristics.Scheduler { return mcp.New() },
		graphs,
		func(r serve.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d results, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d: emission out of input order", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("item %d: %v", i, r.Err)
			continue
		}
		if err := r.Schedule.Validate(); err != nil {
			t.Errorf("item %d: invalid schedule: %v", i, err)
		}
	}
	if got := reg.Counter("serve_completed_total", "").Value(); got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
}

// TestScheduleBatchCancellation is the regression test for the batch
// cancellation contract: once the batch context is cancelled, every
// remaining item is emitted with context.Canceled and a nil Schedule —
// a partial placement must never reach the stream — and emission stays
// aligned with input order.
func TestScheduleBatchCancellation(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 2})
	rng := rand.New(rand.NewSource(8))
	graphs := []*dag.Graph{
		schedtest.RandomDAG(rng, 12, 0.2),
		schedtest.RandomDAG(rng, 12, 0.2),
		schedtest.RandomDAG(rng, 12, 0.2),
		schedtest.RandomDAG(rng, 12, 0.2),
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bs := &blockSched{started: make(chan struct{}, 1), release: make(chan struct{})}
	go func() {
		<-bs.started // item 1 is on the worker
		cancel()
		close(bs.release)
	}()

	// Item 0 schedules normally; item 1 blocks until the batch is
	// cancelled; items 2 and 3 die in the queue or at admission.
	calls := 0
	factory := func() heuristics.Scheduler {
		calls++
		if calls == 2 {
			return bs
		}
		return mcp.New()
	}

	var got []serve.Result
	err := p.ScheduleBatch(ctx, factory, graphs,
		func(r serve.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(graphs) {
		t.Fatalf("emitted %d results, want %d", len(got), len(graphs))
	}
	if got[0].Err != nil || got[0].Schedule == nil {
		t.Fatalf("item 0 should complete before the cancellation: %+v", got[0])
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d: out of order", i, r.Index)
		}
		if i == 0 {
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Schedule != nil {
			t.Errorf("item %d: a schedule reached the stream after cancellation", i)
		}
	}
}

func TestScheduleAfterCloseReturnsErrClosed(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	p := serve.New(serve.Config{Workers: 2, QueueDepth: 2}, reg)
	p.Close()
	p.Close() // idempotent
	if _, _, err := p.Schedule(context.Background(), mcp.New(), tinyGraph()); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	checkLedger(t, reg, 1)
	var got []serve.Result
	err := p.ScheduleBatch(context.Background(),
		func() heuristics.Scheduler { return mcp.New() },
		[]*dag.Graph{tinyGraph()},
		func(r serve.Result) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !errors.Is(got[0].Err, serve.ErrClosed) {
		t.Fatalf("batch on closed pipeline: %+v", got)
	}
	checkLedger(t, reg, 2)
}

func TestRetryAfterDefaultsToOneSecond(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 1})
	if got := p.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter with no observations = %v, want 1s", got)
	}
}
