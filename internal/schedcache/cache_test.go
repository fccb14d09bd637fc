package schedcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"schedcomp/internal/dag"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
)

func testKey(b byte, heuristic string) Key {
	var fp dag.Fingerprint
	fp[0] = b
	return Key{Fingerprint: fp, Heuristic: heuristic}
}

func testSched(n int) *sched.Schedule {
	return &sched.Schedule{ByNode: make([]sched.Assignment, n), NumProcs: 1, Makespan: int64(n)}
}

// sameSchedule reports whether got carries want's placement, processor
// count and makespan: what a hit returns, detached from any graph.
func sameSchedule(got, want *sched.Schedule) bool {
	return got != nil && got.NumProcs == want.NumProcs && got.Makespan == want.Makespan &&
		slices.Equal(got.ByNode, want.ByNode)
}

func computeOnce(t *testing.T, calls *atomic.Int64, s *sched.Schedule) func(context.Context) (*sched.Schedule, error) {
	t.Helper()
	return func(context.Context) (*sched.Schedule, error) {
		calls.Add(1)
		return s, nil
	}
}

func TestHitMissBasics(t *testing.T) {
	c := New(Config{})
	key := testKey(1, "MCP")
	enc := []byte("graph-1")
	want := testSched(3)
	var calls atomic.Int64

	got, st, err := c.Do(context.Background(), key, enc, computeOnce(t, &calls, want))
	if err != nil || got != want || st != Miss {
		t.Fatalf("first Do: got %v status %v err %v", got, st, err)
	}
	got, st, err = c.Do(context.Background(), key, enc, computeOnce(t, &calls, testSched(9)))
	if err != nil || !sameSchedule(got, want) || got.Graph != nil || st != Hit {
		t.Fatalf("second Do: got %v status %v err %v", got, st, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want positive", c.Bytes())
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := New(Config{})
	key := testKey(2, "MCP")
	boom := errors.New("boom")
	_, st, err := c.Do(context.Background(), key, []byte("x"), func(context.Context) (*sched.Schedule, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) || st != Miss {
		t.Fatalf("got status %v err %v", st, err)
	}
	if c.Len() != 0 {
		t.Fatalf("error result was cached: Len = %d", c.Len())
	}
	// The key is usable afterwards.
	var calls atomic.Int64
	if _, st, err := c.Do(context.Background(), key, []byte("x"), computeOnce(t, &calls, testSched(1))); err != nil || st != Miss {
		t.Fatalf("retry after error: status %v err %v", st, err)
	}
}

func TestEntryBudgetEviction(t *testing.T) {
	// One shard so LRU order is globally observable.
	c := New(Config{Shards: 1, MaxEntries: 3})
	ctx := context.Background()
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		key := testKey(byte(i), "ETF")
		if _, _, err := c.Do(ctx, key, []byte{byte(i)}, computeOnce(t, &calls, testSched(1))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Oldest two were evicted: re-requesting key 0 recomputes...
	before := calls.Load()
	if _, st, _ := c.Do(ctx, testKey(0, "ETF"), []byte{0}, computeOnce(t, &calls, testSched(1))); st != Miss {
		t.Fatalf("evicted key served with status %v", st)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted key did not recompute")
	}
	// ...while the newest survives.
	if _, st, _ := c.Do(ctx, testKey(4, "ETF"), []byte{4}, computeOnce(t, &calls, testSched(1))); st != Hit {
		t.Fatalf("fresh key served with status %v", st)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// An entry is charged for its owned copy of the encoding.
	one := sizeOf(bytes.Clone([]byte("some-encoding")), testSched(4), nil)
	c := New(Config{Shards: 1, MaxEntries: 1000, MaxBytes: 2 * one})
	ctx := context.Background()
	var calls atomic.Int64
	for i := 0; i < 4; i++ {
		if _, _, err := c.Do(ctx, testKey(byte(i), "HLFET"), []byte("some-encoding"), computeOnce(t, &calls, testSched(4))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Bytes(); got > 2*one {
		t.Fatalf("Bytes = %d over budget %d", got, 2*one)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 2})
	ctx := context.Background()
	var calls atomic.Int64
	c.Do(ctx, testKey(1, "MCP"), []byte{1}, computeOnce(t, &calls, testSched(1)))
	c.Do(ctx, testKey(2, "MCP"), []byte{2}, computeOnce(t, &calls, testSched(1)))
	// Touch 1 so 2 becomes the cold end, then insert 3.
	if _, st, _ := c.Do(ctx, testKey(1, "MCP"), []byte{1}, computeOnce(t, &calls, testSched(1))); st != Hit {
		t.Fatalf("touch missed: %v", st)
	}
	c.Do(ctx, testKey(3, "MCP"), []byte{3}, computeOnce(t, &calls, testSched(1)))
	if _, st, _ := c.Do(ctx, testKey(1, "MCP"), []byte{1}, computeOnce(t, &calls, testSched(1))); st != Hit {
		t.Fatal("recently touched entry was evicted")
	}
	if _, st, _ := c.Do(ctx, testKey(2, "MCP"), []byte{2}, computeOnce(t, &calls, testSched(1))); st != Miss {
		t.Fatal("cold entry survived past the budget")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Config{})
	key := testKey(7, "DLS")
	enc := []byte("shared")
	want := testSched(2)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	leaderCompute := func(context.Context) (*sched.Schedule, error) {
		calls.Add(1)
		close(started)
		<-release
		return want, nil
	}

	var wg sync.WaitGroup
	statuses := make([]Status, 4)
	results := make([]*sched.Schedule, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], statuses[0], _ = c.Do(context.Background(), key, enc, leaderCompute)
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], statuses[i], _ = c.Do(context.Background(), key, enc, func(context.Context) (*sched.Schedule, error) {
				calls.Add(1)
				return testSched(99), nil
			})
		}(i)
	}
	// Give the followers a moment to park on the flight.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	coalesced := 0
	for i, st := range statuses {
		if results[i] != want {
			t.Fatalf("caller %d got wrong schedule (status %v)", i, st)
		}
		if st == Coalesced {
			coalesced++
		}
	}
	if statuses[0] != Miss {
		t.Fatalf("leader status %v, want Miss", statuses[0])
	}
	if coalesced != 3 {
		t.Fatalf("%d callers coalesced, want 3", coalesced)
	}
}

func TestCancelledLeaderDoesNotPoisonWaiters(t *testing.T) {
	c := New(Config{})
	key := testKey(8, "MCP")
	enc := []byte("takeover")
	want := testSched(5)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(leaderCtx, key, enc, func(ctx context.Context) (*sched.Schedule, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}()
	<-started

	var followerSched *sched.Schedule
	var followerErr error
	var followerStatus Status
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerSched, followerStatus, followerErr = c.Do(context.Background(), key, enc, func(context.Context) (*sched.Schedule, error) {
			return want, nil
		})
	}()
	// Let the follower park on the leader's flight, then cancel the
	// leader out from under it.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error %v, want Canceled", leaderErr)
	}
	if followerErr != nil {
		t.Fatalf("follower inherited cancellation: %v", followerErr)
	}
	if followerSched != want {
		t.Fatal("follower did not take over the computation")
	}
	if followerStatus != Miss {
		t.Fatalf("takeover status %v, want Miss", followerStatus)
	}
	// The takeover's result is cached.
	if _, st, _ := c.Do(context.Background(), key, enc, func(context.Context) (*sched.Schedule, error) {
		t.Fatal("recompute after takeover")
		return nil, nil
	}); st != Hit {
		t.Fatalf("post-takeover status %v, want Hit", st)
	}
}

func TestWaiterOwnCancellation(t *testing.T) {
	c := New(Config{})
	key := testKey(9, "MCP")
	enc := []byte("slow")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), key, enc, func(context.Context) (*sched.Schedule, error) {
		close(started)
		<-release
		return testSched(1), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, key, enc, func(context.Context) (*sched.Schedule, error) {
		t.Fatal("cancelled waiter computed")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
}

func TestFingerprintCollisionServedUncached(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)

	c := New(Config{})
	key := testKey(10, "MCP") // same key for two different "graphs"
	encA, encB := []byte("graph-A"), []byte("graph-B")
	schedA, schedB := testSched(1), testSched(2)
	ctx := context.Background()

	if _, st, _ := c.Do(ctx, key, encA, func(context.Context) (*sched.Schedule, error) { return schedA, nil }); st != Miss {
		t.Fatalf("seed status %v", st)
	}
	var calls atomic.Int64
	got, st, err := c.Do(ctx, key, encB, computeOnce(t, &calls, schedB))
	if err != nil || st != Miss || got != schedB {
		t.Fatalf("collision lookup: got %v status %v err %v", got, st, err)
	}
	if calls.Load() != 1 {
		t.Fatal("collision victim was not computed")
	}
	if c.collisions.Value() == 0 {
		t.Fatal("collision not counted")
	}
	// The incumbent still hits.
	if _, st, _ := c.Do(ctx, key, encA, func(context.Context) (*sched.Schedule, error) {
		t.Fatal("incumbent recomputed")
		return nil, nil
	}); st != Hit {
		t.Fatalf("incumbent status %v", st)
	}
}

func TestStoredEncodingIsOwnedCopy(t *testing.T) {
	c := New(Config{})
	key := testKey(11, "MCP")
	enc := []byte("mutate-me")
	c.Do(context.Background(), key, enc, func(context.Context) (*sched.Schedule, error) { return testSched(1), nil })
	enc[0] = 'X' // caller scribbles on its buffer after Do returns
	if _, st, _ := c.Do(context.Background(), key, []byte("mutate-me"), func(context.Context) (*sched.Schedule, error) {
		t.Fatal("recomputed: stored encoding was aliased to the caller's buffer")
		return nil, nil
	}); st != Hit {
		t.Fatalf("status %v, want Hit", st)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	c := New(Config{Shards: 4, MaxEntries: 64})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := byte(i % 32)
				key := testKey(k, "MCP")
				enc := []byte(fmt.Sprintf("enc-%d", k))
				s, _, err := c.Do(ctx, key, enc, func(context.Context) (*sched.Schedule, error) {
					return testSched(int(k) + 1), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(s.ByNode) != int(k)+1 {
					t.Errorf("key %d got schedule of %d nodes", k, len(s.ByNode))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Hit: "hit", Miss: "miss", Coalesced: "coalesced"} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

// DoMeta must round-trip the compute's opaque metadata through every
// status: returned on the miss, preserved byte-for-byte on hits, and
// shared with coalesced waiters.
func TestDoMetaRoundTrip(t *testing.T) {
	type prov struct {
		LowerBound int64
		Proven     bool
	}
	c := New(Config{})
	key := testKey(7, "quality:best")
	enc := []byte("graph-meta")
	want := testSched(4)
	wantMeta := prov{LowerBound: 42, Proven: true}

	sc, meta, st, err := c.DoMeta(context.Background(), key, enc, func(context.Context) (*sched.Schedule, any, error) {
		return want, wantMeta, nil
	})
	if err != nil || sc != want || st != Miss {
		t.Fatalf("miss: sched %v status %v err %v", sc, st, err)
	}
	if got, ok := meta.(prov); !ok || got != wantMeta {
		t.Fatalf("miss meta = %#v, want %#v", meta, wantMeta)
	}

	sc, meta, st, err = c.DoMeta(context.Background(), key, enc, func(context.Context) (*sched.Schedule, any, error) {
		t.Fatal("compute ran on a hit")
		return nil, nil, nil
	})
	if err != nil || !sameSchedule(sc, want) || st != Hit {
		t.Fatalf("hit: sched %v status %v err %v", sc, st, err)
	}
	if got, ok := meta.(prov); !ok || got != wantMeta {
		t.Fatalf("hit meta = %#v, want %#v", meta, wantMeta)
	}

	// Coalesced waiters receive the leader's meta.
	key2 := testKey(8, "quality:best")
	block := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, m, st, err := c.DoMeta(context.Background(), key2, enc, func(context.Context) (*sched.Schedule, any, error) {
			close(entered)
			<-block
			return want, wantMeta, nil
		})
		if err != nil || st != Miss {
			t.Errorf("leader: status %v err %v", st, err)
		}
		if got, ok := m.(prov); !ok || got != wantMeta {
			t.Errorf("leader meta = %#v", m)
		}
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, m, st, err := c.DoMeta(context.Background(), key2, enc, func(context.Context) (*sched.Schedule, any, error) {
			t.Error("waiter computed")
			return nil, nil, nil
		})
		if err != nil || st != Coalesced {
			t.Errorf("waiter: status %v err %v", st, err)
		}
		if got, ok := m.(prov); !ok || got != wantMeta {
			t.Errorf("waiter meta = %#v", m)
		}
	}()
	// Let the waiter park on the flight before releasing the leader.
	time.Sleep(10 * time.Millisecond)
	close(block)
	wg.Wait()
	<-done

	// Plain Do on a DoMeta-stored entry still works (meta dropped).
	sc, st, err = c.Do(context.Background(), key, enc, computeOnce(t, new(atomic.Int64), testSched(9)))
	if err != nil || !sameSchedule(sc, want) || st != Hit {
		t.Fatalf("Do after DoMeta: sched %v status %v err %v", sc, st, err)
	}
}

// A stored entry keeps only the answer: once the computing call has
// returned, the canonical clone the schedule was built on — with every
// analysis memoized on it — must be collectable, and hits must still
// serve the schedule.
func TestStoredEntryDropsCanonicalClone(t *testing.T) {
	g := dag.New("fork")
	root := g.AddNode(3)
	for i := 0; i < 8; i++ {
		g.MustAddEdge(root, g.AddNode(int64(2+i)), int64(i))
	}
	c := New(Config{})
	key := Key{Fingerprint: g.CanonicalHash(), Heuristic: "MCP"}
	var clone weak.Pointer[dag.Graph]
	var want sched.Schedule
	compute := func(context.Context) (*sched.Schedule, error) {
		cg := g.CanonicalClone()
		clone = weak.Make(cg)
		if _, err := cg.Descendants(); err != nil { // memoize an analysis, as MCP does
			return nil, err
		}
		order, err := cg.TopoOrder()
		if err != nil {
			return nil, err
		}
		pl := sched.NewPlacement(cg.NumNodes())
		for _, v := range order {
			pl.Assign(v, 0)
		}
		sc, err := sched.Build(cg, pl)
		if err == nil {
			want = sched.Schedule{ByNode: slices.Clone(sc.ByNode), NumProcs: sc.NumProcs, Makespan: sc.Makespan}
		}
		return sc, err
	}
	if _, st, err := c.Do(context.Background(), key, g.CanonicalEncoding(), compute); err != nil || st != Miss {
		t.Fatalf("miss: status %v err %v", st, err)
	}
	runtime.GC()
	if clone.Value() != nil {
		t.Fatal("the cache entry keeps the canonical clone alive")
	}
	hit, st, err := c.Do(context.Background(), key, g.CanonicalEncoding(), compute)
	if err != nil || st != Hit || hit.Graph != nil || !sameSchedule(hit, &want) {
		t.Fatalf("hit after GC: %+v status %v err %v", hit, st, err)
	}
}
