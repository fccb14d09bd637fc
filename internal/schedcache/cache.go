// Package schedcache is an in-process, content-addressed cache of
// computed schedules. Entries are keyed by the canonical graph
// fingerprint (dag.CanonicalHash — isomorphism-stable and name-blind)
// and the heuristic name, so resubmitting the same task graph under
// different node labels or a different name still hits.
//
// The cache is sharded (2^k shards, each with its own mutex, LRU list
// and lookup map) so that concurrent requests rarely contend, bounded
// by both entry count and resident bytes, and deduplicates
// concurrent identical requests with per-key singleflight: one caller
// computes, the rest wait and share the result.
//
// Soundness never rests on the fingerprint being collision-free: every
// hit compares the requester's canonical encoding against the stored
// one byte-for-byte, and a mismatch (a SHA-256 collision between
// different graphs, or corruption) is counted and served by an
// uncached compute rather than a wrong schedule.
package schedcache

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"reflect"
	"sync"
	"unsafe"

	"schedcomp/internal/dag"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
)

// Key identifies one cache entry: what graph, scheduled how.
type Key struct {
	// Fingerprint is the graph's canonical content hash.
	Fingerprint dag.Fingerprint
	// Heuristic is the registered heuristic name.
	Heuristic string
}

// Status reports how a Do call was satisfied.
type Status uint8

const (
	// Miss: this call computed the schedule (and, absent errors,
	// stored it).
	Miss Status = iota
	// Hit: served from a stored entry without computing.
	Hit
	// Coalesced: waited on a concurrent identical request and shared
	// its result; nothing was computed by this call.
	Coalesced
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Config sizes a Cache. Zero values select the defaults.
type Config struct {
	// Shards is the number of independent shards, rounded up to a
	// power of two. Default 16.
	Shards int
	// MaxEntries bounds the total number of cached schedules across
	// all shards. Default 4096.
	MaxEntries int
	// MaxBytes bounds the resident bytes of all entries across all
	// shards, as counted by sizeOf. Default 64 MiB.
	MaxBytes int64
}

const (
	defaultShards  = 16
	defaultEntries = 4096
	defaultBytes   = 64 << 20
)

// entry is one cached schedule. enc is an owned copy of the canonical
// encoding (never a shared view of a graph's analysis cache); sched is
// a detached canonical-space schedule (Graph nil, see detach) shared
// read-only with every caller, as is meta (opaque compute-provided
// provenance, e.g. the anytime tier's proven bound).
type entry struct {
	key   Key
	enc   []byte
	sched *sched.Schedule
	meta  any
	bytes int64
}

// flight is one in-progress computation that concurrent callers of the
// same key wait on.
type flight struct {
	done chan struct{}
	// Written exactly once before done is closed.
	enc   []byte
	sched *sched.Schedule
	meta  any
	err   error
}

type shard struct {
	mu      sync.Mutex
	lru     *list.List // of *entry; front = most recently used
	byKey   map[Key]*list.Element
	flights map[Key]*flight
	bytes   int64

	maxEntries int
	maxBytes   int64
}

// Cache is a sharded content-addressed schedule cache. It is safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64

	entries *obs.Gauge
	size    *obs.Gauge

	evictions  *obs.Counter
	collisions *obs.Counter

	// Per-heuristic hit/miss/coalesced counters, cached so the hot
	// path skips the registry's mutex. The heuristic label takes every
	// registered heuristic name plus "quality:best" — bounded
	// cardinality.
	perHeuristic sync.Map // string -> *heuristicCounters
}

type heuristicCounters struct {
	hits, misses, coalesced *obs.Counter
}

// New returns a cache sized by cfg, instrumented on the default obs
// registry.
func New(cfg Config) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = defaultEntries
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultBytes
	}
	if maxEntries < n {
		// Fewer entries than shards: shrink the shard count so every
		// shard can hold at least one entry.
		for n > 1 && maxEntries < n {
			n >>= 1
		}
	}

	reg := obs.Default()
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
		entries: reg.Gauge("schedcache_entries",
			"Schedules currently cached."),
		size: reg.Gauge("schedcache_bytes",
			"Approximate resident bytes of cached schedules."),
		evictions: reg.Counter("schedcache_evictions_total",
			"Cached schedules evicted to stay within the entry or byte budget."),
		collisions: reg.Counter("schedcache_collisions_total",
			"Lookups whose fingerprint matched a stored entry with a different canonical encoding."),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			lru:        list.New(),
			byKey:      make(map[Key]*list.Element), //lint:coldpath cache construction runs once per process
			flights:    make(map[Key]*flight),       //lint:coldpath cache construction runs once per process
			maxEntries: (maxEntries + n - 1) / n,
			maxBytes:   (maxBytes + int64(n) - 1) / int64(n),
		}
	}
	return c
}

func (c *Cache) counters(heuristic string) *heuristicCounters {
	if hc, ok := c.perHeuristic.Load(heuristic); ok {
		return hc.(*heuristicCounters)
	}
	reg := obs.Default()
	l := obs.L("heuristic", heuristic)
	hc := &heuristicCounters{
		hits:      reg.Counter("schedcache_hits_total", "Schedule requests served from cache.", l),
		misses:    reg.Counter("schedcache_misses_total", "Schedule requests computed and cached.", l),
		coalesced: reg.Counter("schedcache_coalesced_total", "Schedule requests coalesced onto a concurrent identical computation.", l),
	}
	actual, _ := c.perHeuristic.LoadOrStore(heuristic, hc)
	return actual.(*heuristicCounters)
}

func (c *Cache) shardFor(k Key) *shard {
	// The fingerprint is a SHA-256: any 8 bytes are uniformly
	// distributed, so fold the first word with the heuristic name.
	h := uint64(k.Fingerprint[0]) | uint64(k.Fingerprint[1])<<8 |
		uint64(k.Fingerprint[2])<<16 | uint64(k.Fingerprint[3])<<24 |
		uint64(k.Fingerprint[4])<<32 | uint64(k.Fingerprint[5])<<40 |
		uint64(k.Fingerprint[6])<<48 | uint64(k.Fingerprint[7])<<56
	h ^= uint64(len(k.Heuristic)) << 32
	for _, b := range []byte(k.Heuristic) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return c.shards[h&c.mask]
}

// entryOverhead is the fixed part of an entry's footprint: the entry
// itself, its detached Schedule header, its LRU list element, and its
// byKey slot (key plus element pointer, at the map's 7/8 maximum load).
const entryOverhead = int64(unsafe.Sizeof(entry{}) + unsafe.Sizeof(sched.Schedule{}) +
	unsafe.Sizeof(list.Element{}) + (unsafe.Sizeof(Key{})+unsafe.Sizeof(&list.Element{}))*8/7)

// sizeOf is the resident cost of one entry: the owned encoding, the
// detached schedule's assignment array, the boxed meta value, and the
// fixed overhead. The key's heuristic name is a registry constant and
// the schedule holds no graph, so nothing else is retained.
func sizeOf(enc []byte, s *sched.Schedule, meta any) int64 {
	n := int64(cap(enc)) + int64(cap(s.ByNode))*int64(unsafe.Sizeof(sched.Assignment{})) + entryOverhead
	if meta != nil {
		n += int64(reflect.TypeOf(meta).Size())
	}
	return n
}

// detach returns the part of a computed schedule an entry keeps:
// placement, processor count and makespan, with Graph nil. The
// canonical clone the schedule was computed on, and every analysis
// memoized on it, become garbage once the computing request ends;
// callers rebind a hit to their own graph (serve's remapSchedule).
func detach(s *sched.Schedule) *sched.Schedule {
	return &sched.Schedule{ByNode: s.ByNode, NumProcs: s.NumProcs, Makespan: s.Makespan}
}

// Do returns the schedule for key, computing it with compute on a
// miss. enc must be the canonical encoding of the graph the key's
// fingerprint was derived from; it is only read during the call (an
// owned copy is stored). compute must return a schedule in canonical
// index space, deterministic for the encoding, whose ByNode the cache
// may keep. A miss and its coalesced waiters get compute's own
// schedule; a hit gets the stored detached copy, whose Graph is nil.
//
// Concurrent calls with the same key coalesce: one computes, the rest
// wait for its result (or their own context, whichever ends first).
// If the computing caller is cancelled, a waiter whose own context is
// still live takes over the computation instead of inheriting the
// cancellation.
func (c *Cache) Do(ctx context.Context, key Key, enc []byte, compute func(context.Context) (*sched.Schedule, error)) (*sched.Schedule, Status, error) {
	sc, _, st, err := c.DoMeta(ctx, key, enc, func(ctx context.Context) (*sched.Schedule, any, error) {
		s, err := compute(ctx)
		return s, nil, err
	})
	return sc, st, err
}

// DoMeta is Do for computations that produce provenance beyond the
// schedule itself — the anytime tier's proven lower bound, generation
// counts and so on. The opaque meta value is stored beside the
// schedule and returned with every hit or coalesced share, so cached
// refined schedules keep their certified gap instead of degrading to
// an uncertified answer. meta must be immutable: it is shared across
// callers exactly like the schedule.
func (c *Cache) DoMeta(ctx context.Context, key Key, enc []byte, compute func(context.Context) (*sched.Schedule, any, error)) (*sched.Schedule, any, Status, error) {
	s := c.shardFor(key)
	hc := c.counters(key.Heuristic)
	waited := false
	for {
		s.mu.Lock()
		if el, ok := s.byKey[key]; ok {
			e := el.Value.(*entry)
			if bytes.Equal(e.enc, enc) {
				s.lru.MoveToFront(el)
				s.mu.Unlock()
				if waited {
					hc.coalesced.Inc()
					return e.sched, e.meta, Coalesced, nil
				}
				hc.hits.Inc()
				return e.sched, e.meta, Hit, nil
			}
			// Fingerprint collision: a different graph owns this key.
			// Serve correctness over throughput: compute uncached.
			s.mu.Unlock()
			c.collisions.Inc()
			hc.misses.Inc()
			sc, meta, err := compute(ctx)
			return sc, meta, Miss, err
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, nil, Miss, ctx.Err()
			case <-f.done:
			}
			waited = true
			if f.err != nil {
				// A cancelled leader must not poison waiters whose own
				// contexts are live: retry (and likely become leader).
				if isCancellation(f.err) && ctx.Err() == nil {
					continue
				}
				return nil, nil, Miss, f.err
			}
			if !bytes.Equal(f.enc, enc) {
				// Coalesced onto a colliding graph's flight.
				c.collisions.Inc()
				hc.misses.Inc()
				sc, meta, err := compute(ctx)
				return sc, meta, Miss, err
			}
			hc.coalesced.Inc()
			return f.sched, f.meta, Coalesced, nil
		}
		// Leader: compute outside the shard lock.
		f := &flight{done: make(chan struct{})} //lint:coldpath miss path; each flight needs its own done channel
		s.flights[key] = f
		s.mu.Unlock()

		sc, meta, err := compute(ctx)
		f.enc = enc
		f.sched = sc
		f.meta = meta
		f.err = err

		s.mu.Lock()
		delete(s.flights, key)
		if err == nil {
			c.store(s, key, enc, sc, meta)
		}
		s.mu.Unlock()
		close(f.done)

		if err != nil {
			return nil, nil, Miss, err
		}
		hc.misses.Inc()
		return sc, meta, Miss, nil
	}
}

// store inserts a computed schedule, evicting from the cold end until
// the shard is back under both budgets. The shard lock must be held.
func (c *Cache) store(s *shard, key Key, enc []byte, sc *sched.Schedule, meta any) {
	if el, ok := s.byKey[key]; ok {
		// A collision-path compute can race a store for the same key;
		// keep the incumbent (first writer wins, both are valid for
		// their own encodings and the incumbent matched more often).
		s.lru.MoveToFront(el)
		return
	}
	e := &entry{
		key:   key,
		enc:   bytes.Clone(enc),
		sched: detach(sc),
		meta:  meta,
	}
	e.bytes = sizeOf(e.enc, e.sched, meta)
	s.byKey[key] = s.lru.PushFront(e)
	s.bytes += e.bytes
	c.entries.Add(1)
	c.size.Add(e.bytes)
	for (s.lru.Len() > s.maxEntries || s.bytes > s.maxBytes) && s.lru.Len() > 1 {
		el := s.lru.Back()
		old := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.byKey, old.key)
		s.bytes -= old.bytes
		c.entries.Add(-1)
		c.size.Add(-old.bytes)
		c.evictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the resident size of all entries, as counted by
// sizeOf.
func (c *Cache) Bytes() int64 {
	var b int64
	for _, s := range c.shards {
		s.mu.Lock()
		b += s.bytes
		s.mu.Unlock()
	}
	return b
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
