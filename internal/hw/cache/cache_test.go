package cache

import (
	"testing"
	"testing/quick"
)

func sharedCfg() Config {
	return Config{Sets: 64, Ways: 4, LineBits: 6, HitCycles: 2, MissCycles: 40}
}

func TestMissThenHit(t *testing.T) {
	c := New(sharedCfg())
	hit, cyc := c.Access(0x1000)
	if hit || cyc != 40 {
		t.Fatalf("first access: hit=%v cyc=%d", hit, cyc)
	}
	hit, cyc = c.Access(0x1000)
	if !hit || cyc != 2 {
		t.Fatalf("second access: hit=%v cyc=%d", hit, cyc)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats: %d/%d", c.Hits, c.Misses)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	c := New(sharedCfg())
	c.Access(0x1000)
	if hit, _ := c.Access(0x103F); !hit {
		t.Fatal("access within the same 64B line missed")
	}
	if hit, _ := c.Access(0x1040); hit {
		t.Fatal("access to the next line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := sharedCfg()
	cfg.Ways = 2
	c := New(cfg)
	// Three conflicting lines in a 2-way set: same set index.
	stride := uint64(cfg.Sets) << cfg.LineBits
	a, b, d := uint64(0), stride, 2*stride
	c.Access(a)
	c.Access(b)
	c.Access(a) // make b the LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived")
	}
	if !c.Probe(d) {
		t.Error("filled line absent")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d", c.Evictions)
	}
}

// TestFillVictimWay pins which way a fill takes, by position: the first
// way holding no resident line, else the least recently used one. The
// LRU model in lineref_test.go checks residency and recency but not
// positions, which Snapshot exposes.
func TestFillVictimWay(t *testing.T) {
	c := New(sharedCfg()) // 4 ways; lines 0x1000 apart share set 0
	lineAt := func(way int) LineState { return c.Snapshot()[way] }
	for w := uint64(0); w < 4; w++ {
		c.Access(w * 0x1000)
	}
	// Empty ways 1 and 3; a fill takes way 1, the next way 3.
	c.FlushRange(0x1000, 1)
	c.FlushRange(0x3000, 1)
	c.Access(0x8000)
	if l := lineAt(1); !l.Resident || l.Tag != 0x8000>>6 {
		t.Fatalf("way 1 holds %+v, want the fill of 0x8000", l)
	}
	c.Access(0x9000)
	if l := lineAt(3); !l.Resident || l.Tag != 0x9000>>6 {
		t.Fatalf("way 3 holds %+v, want the fill of 0x9000", l)
	}
	// Full: touch ways 0, 1 and 3, so way 2 (0x2000) is the LRU victim.
	c.Access(0x0000)
	c.Access(0x8000)
	c.Access(0x9000)
	c.Access(0xa000)
	if l := lineAt(2); !l.Resident || l.Tag != 0xa000>>6 {
		t.Fatalf("way 2 holds %+v, want 0xa000 in place of the LRU line", l)
	}
	if c.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", c.Evictions)
	}
}

func TestFlushAll(t *testing.T) {
	c := New(sharedCfg())
	for i := uint64(0); i < 32; i++ {
		c.Access(i << 6)
	}
	if c.Live() != 32 {
		t.Fatalf("live = %d", c.Live())
	}
	c.FlushAll()
	if c.Live() != 0 {
		t.Fatalf("live after flush = %d", c.Live())
	}
}

func TestPartitionIsolation(t *testing.T) {
	// Two domains get disjoint halves of the cache; an access by one can
	// never evict the other, whatever the addresses.
	cfg := sharedCfg()
	cfg.PartitionShift = 16 // 64 KiB regions
	cfg.Partitions = 2
	c := New(cfg)

	per := cfg.Sets / cfg.Partitions
	// Fill domain 0 (region 0) exactly to its partition's capacity.
	var dom0 []uint64
	for i := 0; i < per*cfg.Ways; i++ {
		pa := uint64(i) << cfg.LineBits // all in region 0
		if pa>>16 != 0 {
			break
		}
		dom0 = append(dom0, pa)
		c.Access(pa)
		if got := c.SetOf(pa); got >= per {
			t.Fatalf("region-0 address mapped to set %d outside its partition", got)
		}
	}
	// Hammer domain 1 (region 1) far beyond capacity.
	for i := 0; i < 4*cfg.Sets*cfg.Ways; i++ {
		pa := uint64(1)<<16 + uint64(i)<<cfg.LineBits
		if pa>>16 != 1 {
			break
		}
		c.Access(pa)
		if got := c.SetOf(pa); got < per {
			t.Fatalf("region-1 address mapped to set %d inside partition 0", got)
		}
	}
	// Every domain-0 line must still be resident.
	for _, pa := range dom0 {
		if !c.Probe(pa) {
			t.Fatalf("partitioned line %#x evicted by other domain", pa)
		}
	}
}

func TestSharedCacheInterference(t *testing.T) {
	// Without partitioning the same experiment evicts domain 0's lines —
	// this asymmetry is the side channel the paper closes.
	c := New(sharedCfg())
	c.Access(0) // domain 0 line in set 0
	cfg := c.Config()
	stride := uint64(cfg.Sets) << cfg.LineBits
	for i := 1; i <= cfg.Ways; i++ {
		c.Access(uint64(1)<<16 + stride*uint64(i)) // same set, other domain
	}
	if c.Probe(0) {
		t.Fatal("shared cache failed to show interference (test setup wrong?)")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineBits: 6},
		{Sets: 3, Ways: 1, LineBits: 6},
		{Sets: 4, Ways: 0, LineBits: 6},
		{Sets: 4, Ways: 1, LineBits: 2},
		{Sets: 4, Ways: 1, LineBits: 13},
		{Sets: 64, Ways: 2, LineBits: 6, PartitionShift: 16, Partitions: 0},
		{Sets: 64, Ways: 2, LineBits: 6, PartitionShift: 16, Partitions: 7},
		{Sets: 64, Ways: 2, LineBits: 6, PartitionShift: 16, Partitions: -2},
		{Sets: 64, Ways: 2, LineBits: 6, PartitionShift: 5, Partitions: 2},  // a line would straddle partitions
		{Sets: 64, Ways: 2, LineBits: 6, PartitionShift: 64, Partitions: 2}, // past the address width
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// The shift/mask set index is the division form it replaced: partition
// (pa>>PartitionShift) mod Partitions owns Sets/Partitions consecutive
// sets, indexed by the line address modulo that count.
func TestSetIndexMatchesPartitionFormula(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 1024, Ways: 8, LineBits: 6, PartitionShift: 18, Partitions: 64},
		{Sets: 64, Ways: 4, LineBits: 6, PartitionShift: 6, Partitions: 4},
		{Sets: 64, Ways: 4, LineBits: 6, PartitionShift: 63, Partitions: 4},
		sharedCfg(),
	} {
		c := New(cfg)
		want := func(pa uint64) int {
			if cfg.Partitions == 0 {
				return int(pa >> cfg.LineBits % uint64(cfg.Sets))
			}
			per := uint64(cfg.Sets / cfg.Partitions)
			part := pa >> cfg.PartitionShift % uint64(cfg.Partitions)
			return int(part*per + pa>>cfg.LineBits%per)
		}
		if err := quick.Check(func(pa uint64) bool { return c.SetOf(pa) == want(pa) }, nil); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

// Property: an address is always resident immediately after access, and
// set mapping is a pure function.
func TestCacheProperties(t *testing.T) {
	c := New(sharedCfg())
	residentAfterAccess := func(pa uint64) bool {
		c.Access(pa)
		return c.Probe(pa)
	}
	if err := quick.Check(residentAfterAccess, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	pureMapping := func(pa uint64) bool {
		return c.SetOf(pa) == c.SetOf(pa) && c.SetOf(pa) < sharedCfg().Sets
	}
	if err := quick.Check(pureMapping, nil); err != nil {
		t.Error(err)
	}
}
