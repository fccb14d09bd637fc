package serve_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/obs"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"
)

// checkBestResult asserts the quality-tier invariants every returned
// result must satisfy, regardless of cache status: a valid schedule on
// the requesting graph, the gap identity, and Proven ⇔ Gap == 0.
func checkBestResult(t *testing.T, res *anytime.Result) {
	t.Helper()
	if res == nil || res.Schedule == nil {
		t.Fatal("quality result missing schedule")
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("quality schedule invalid: %v", err)
	}
	if res.Gap != res.Schedule.Makespan-res.LowerBound {
		t.Fatalf("gap %d != makespan %d - lower bound %d",
			res.Gap, res.Schedule.Makespan, res.LowerBound)
	}
	if res.Gap < 0 {
		t.Fatalf("negative gap %d (bound above the schedule)", res.Gap)
	}
	if res.Proven != (res.Gap == 0) {
		t.Fatalf("Proven = %v with gap %d", res.Proven, res.Gap)
	}
}

func TestScheduleBestUncached(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	g := schedtest.RandomDAG(rand.New(rand.NewSource(21)), 15, 0.2)

	res, st, err := p.ScheduleBest(context.Background(), g, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheNone {
		t.Fatalf("status %q, want CacheNone without a cache", st)
	}
	checkBestResult(t, res)
	if res.Schedule.Graph != g {
		t.Fatal("schedule does not point at the requesting graph")
	}
	if res.SeedName == "" {
		t.Fatal("result lost its seeding heuristic name")
	}
}

// The anytime result must never be worse than the best portfolio
// member — the floor is structural (seeds survive in the population),
// so this holds at any budget.
func TestScheduleBestPortfolioFloor(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3; trial++ {
		g := schedtest.RandomDAG(rng, 10+rng.Intn(20), 0.2)
		floor := int64(-1)
		for _, name := range heuristics.Names() {
			s, err := heuristics.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := heuristics.Run(s, g)
			if err != nil {
				t.Fatal(err)
			}
			if floor < 0 || sc.Makespan < floor {
				floor = sc.Makespan
			}
		}
		res, _, err := p.ScheduleBest(context.Background(), g, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		checkBestResult(t, res)
		if res.Schedule.Makespan > floor {
			t.Fatalf("trial %d: quality makespan %d worse than portfolio floor %d",
				trial, res.Schedule.Makespan, floor)
		}
	}
}

// A cache hit must reproduce the refined schedule byte-for-byte AND
// keep the certified provenance (bound, proof, generation counts) —
// degrading a proven-optimal cached answer to an uncertified one would
// silently break the gap contract.
func TestScheduleBestCachedProvenanceSurvivesHit(t *testing.T) {
	p := newCachedPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	rng := rand.New(rand.NewSource(23))
	g := schedtest.RandomDAG(rng, 18, 0.2)

	first, st, err := p.ScheduleBest(context.Background(), g, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheMiss {
		t.Fatalf("first status %q, want miss", st)
	}
	checkBestResult(t, first)

	second, st, err := p.ScheduleBest(context.Background(), g, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheHit {
		t.Fatalf("second status %q, want hit", st)
	}
	checkBestResult(t, second)
	if !bytes.Equal(scheduleJSON(t, first.Schedule), scheduleJSON(t, second.Schedule)) {
		t.Fatal("hit schedule not byte-identical to the miss")
	}
	if second.LowerBound != first.LowerBound || second.Proven != first.Proven ||
		second.Generations != first.Generations || second.Improvements != first.Improvements ||
		second.ProbeStates != first.ProbeStates || second.SeedName != first.SeedName {
		t.Fatalf("provenance lost on hit:\nmiss %+v\nhit  %+v", first, second)
	}

	// An isomorphic relabeling hits too, with the schedule remapped into
	// the twin's numbering and the certified bound intact.
	twin := permutedCopy(rng, g)
	remapped, st, err := p.ScheduleBest(context.Background(), twin, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheHit {
		t.Fatalf("twin status %q, want hit", st)
	}
	checkBestResult(t, remapped)
	if remapped.Schedule.Graph != twin {
		t.Fatal("remapped schedule does not point at the twin")
	}
	if remapped.Schedule.Makespan != first.Schedule.Makespan ||
		remapped.LowerBound != first.LowerBound || remapped.Proven != first.Proven {
		t.Fatalf("twin hit disagrees: makespan %d/%d bound %d/%d proven %v/%v",
			remapped.Schedule.Makespan, first.Schedule.Makespan,
			remapped.LowerBound, first.LowerBound, remapped.Proven, first.Proven)
	}
}

// The quality tier and the plain tier must not share cache entries:
// same graph, different key dimensions.
func TestScheduleBestDoesNotCollideWithPlainCache(t *testing.T) {
	p := newCachedPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	g := schedtest.RandomDAG(rand.New(rand.NewSource(24)), 16, 0.2)

	for _, name := range heuristics.Names() {
		s, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, st, err := p.Schedule(context.Background(), s, g); err != nil || st != serve.CacheMiss {
			t.Fatalf("%s warm-up: status %q err %v", name, st, err)
		}
	}
	// Every plain entry is warm; the quality tier must still be a miss.
	res, st, err := p.ScheduleBest(context.Background(), g, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheMiss {
		t.Fatalf("quality request status %q after plain warm-up, want miss", st)
	}
	checkBestResult(t, res)
}

func TestScheduleBestAfterClose(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	p := serve.New(serve.Config{Workers: 1, QueueDepth: 1}, reg)
	p.Close()
	if _, _, err := p.ScheduleBest(context.Background(), tinyGraph(), time.Millisecond); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	checkLedger(t, reg, 1)
}

func TestScheduleBestPreCancelled(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := p.ScheduleBest(ctx, tinyGraph(), time.Millisecond)
	if !heuristics.IsCancellation(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if res != nil {
		t.Fatalf("stale result %+v from pre-cancelled context", res)
	}
}

// TestSoakAnytime hammers a cached pipeline with a mix of quality-tier
// and plain requests under the race detector: random client
// cancellations, repeated graph content (cache hits and coalesced
// quality flights), and concurrent plain traffic. Afterwards the
// counter ledger must reconcile exactly and no goroutine may survive.
func TestSoakAnytime(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	p := serve.New(serve.Config{Workers: 4, QueueDepth: 8, Cache: schedcache.New(schedcache.Config{})}, reg)

	soakNames := heuristics.Names()
	deadline := time.Now().Add(soakDuration(t))
	var qualityOK, plainOK, sheds, cancellations atomic.Uint64

	// A small pool of shared graphs makes cache hits and coalesced
	// quality flights common; fresh graphs keep misses in the mix.
	sharedRng := rand.New(rand.NewSource(99))
	pool := make([]*dag.Graph, 6)
	for i := range pool {
		pool[i] = schedtest.RandomDAG(sharedRng, 8+sharedRng.Intn(24), 0.2)
	}

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				g := pool[rng.Intn(len(pool))]
				if rng.Intn(4) == 0 {
					g = schedtest.RandomDAG(rng, 8+rng.Intn(24), 0.2)
				}

				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(5) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}

				if rng.Intn(2) == 0 {
					budget := time.Duration(1+rng.Intn(5)) * time.Millisecond
					res, _, err := p.ScheduleBest(ctx, g, budget)
					switch {
					case err == nil:
						checkBestResult(t, res)
						qualityOK.Add(1)
					case errors.Is(err, serve.ErrQueueFull):
						sheds.Add(1)
					case heuristics.IsCancellation(err):
						cancellations.Add(1)
					default:
						t.Errorf("quality request: %v", err)
					}
				} else {
					name := soakNames[rng.Intn(len(soakNames))]
					s, err := heuristics.New(name)
					if err != nil {
						t.Error(err)
						cancel()
						return
					}
					sc, _, err := p.Schedule(ctx, s, g)
					switch {
					case err == nil:
						plainOK.Add(1)
						if verr := sc.Validate(); verr != nil {
							t.Errorf("invalid plain schedule under load: %v", verr)
						}
					case errors.Is(err, serve.ErrQueueFull):
						sheds.Add(1)
					case heuristics.IsCancellation(err):
						cancellations.Add(1)
					default:
						t.Errorf("plain request: %v", err)
					}
				}
				cancel()
			}
		}(int64(c) + 101)
	}
	wg.Wait()
	p.Close()

	if qualityOK.Load() == 0 {
		t.Error("soak produced no successful quality results")
	}
	if plainOK.Load() == 0 {
		t.Error("soak produced no successful plain schedules")
	}
	t.Logf("anytime soak: %d quality, %d plain, %d sheds, %d cancellations",
		qualityOK.Load(), plainOK.Load(), sheds.Load(), cancellations.Load())

	submitted := reg.Counter("serve_submitted_total", "").Value()
	admitted := reg.Counter("serve_admitted_total", "").Value()
	shed := reg.Counter("serve_shed_total", "").Value()
	completed := reg.Counter("serve_completed_total", "").Value()
	failed := reg.Counter("serve_failed_total", "").Value()
	cancelled := reg.Counter("serve_cancelled_total", "").Value()
	if submitted != admitted+shed {
		t.Errorf("submitted (%d) != admitted (%d) + shed (%d)", submitted, admitted, shed)
	}
	if admitted != completed+failed+cancelled {
		t.Errorf("admitted (%d) != completed (%d) + failed (%d) + cancelled (%d)",
			admitted, completed, failed, cancelled)
	}
	if failed != 0 {
		t.Errorf("failed = %d on well-formed graphs, want 0", failed)
	}
	if depth := reg.Gauge("serve_queue_depth", "").Value(); depth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", depth)
	}

	settle := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("goroutines: %d at start, %d after Close — leak", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
