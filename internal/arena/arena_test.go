package arena

import (
	"testing"

	"schedcomp/internal/bitset"
)

func TestSlicesAreZeroedAndDisjoint(t *testing.T) {
	s := Get()
	defer s.Release()

	a := s.Int64s(10)
	b := s.Int64s(10)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		a[i] = int64(i + 1)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %d, want 0 (scratch not zeroed or not disjoint)", i, v)
		}
	}
	// Appending beyond a carved slice must not stomp its neighbour.
	a = append(a[:10], 99)
	_ = a
	if b[0] != 0 {
		t.Fatalf("append to earlier slice stomped later slice: b[0] = %d", b[0])
	}
}

func TestReuseZeroesDirtyBacking(t *testing.T) {
	s := Get()
	x := s.Ints(64)
	for i := range x {
		x[i] = -1
	}
	s.Release()

	s2 := Get()
	defer s2.Release()
	y := s2.Ints(64)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("reused scratch not zeroed at %d: %d", i, v)
		}
	}
}

func TestGrowthKeepsEarlierSlicesValid(t *testing.T) {
	s := Get()
	defer s.Release()
	first := s.Int32s(8)
	first[0] = 42
	// Force the chunk to grow several times.
	for i := 0; i < 10; i++ {
		_ = s.Int32s(1 << 10)
	}
	if first[0] != 42 {
		t.Fatalf("earlier slice invalidated by growth: %d", first[0])
	}
}

func TestBitset(t *testing.T) {
	s := Get()
	defer s.Release()
	bs := s.Bitset(130)
	if bs.Len() != 130 {
		t.Fatalf("capacity %d, want 130", bs.Len())
	}
	if got := bs.Count(); got != 0 {
		t.Fatalf("fresh scratch bitset has %d elements", got)
	}
	bs.Add(0)
	bs.Add(129)
	if !bs.Contains(0) || !bs.Contains(129) || bs.Count() != 2 {
		t.Fatalf("bitset ops broken: %v", bs.String())
	}
	other := bitset.New(130)
	other.Add(64)
	bs.Union(other)
	if !bs.Contains(64) {
		t.Fatal("union with heap-allocated set failed")
	}
}

func TestBitsets(t *testing.T) {
	s := Get()
	defer s.Release()
	sets := s.Bitsets(5, 70)
	if len(sets) != 5 {
		t.Fatalf("got %d sets, want 5", len(sets))
	}
	for i := range sets {
		if sets[i].Len() != 70 || sets[i].Count() != 0 {
			t.Fatalf("set %d: len %d count %d, want 70/0", i, sets[i].Len(), sets[i].Count())
		}
	}
	// Sets must be disjoint: writing one leaves the others empty.
	sets[2].Add(69)
	for i := range sets {
		if i != 2 && sets[i].Count() != 0 {
			t.Fatalf("set %d dirtied by a write to set 2", i)
		}
	}
	if !sets[2].Contains(69) {
		t.Fatal("write to set 2 lost")
	}
}

func TestAllocFreeSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so the steady state may allocate")
	}
	// Warm the pool so backings exist.
	s := Get()
	_ = s.Int64s(256)
	_ = s.Bools(256)
	_ = s.NodeIDs(256)
	s.Release()

	allocs := testing.AllocsPerRun(100, func() {
		sc := Get()
		_ = sc.Int64s(256)
		_ = sc.Bools(256)
		_ = sc.NodeIDs(256)
		sc.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/carve/Release allocates %.1f times per run, want 0", allocs)
	}
}
