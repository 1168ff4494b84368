package cache

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleFlush is the brute-force sweep FlushRange must agree with: every
// live line of every set whose bytes overlap [pa, pa+n) is invalidated,
// clipped at the top of the address space.
func oracleFlush(c *Cache, pa, n uint64) int {
	if n == 0 {
		return 0
	}
	end := pa + n - 1
	if end < pa {
		end = math.MaxUint64
	}
	size := uint64(1) << c.cfg.LineBits
	flushed := 0
	for _, set := range c.sets {
		for i := range set {
			start := set[i].tag << c.cfg.LineBits
			if set[i].live(c.epoch) && start <= end && start+size-1 >= pa {
				set[i].valid = false
				flushed++
			}
		}
	}
	return flushed
}

// fillAround fills c from a seeded generator: lines straddling both ends
// of [pa, pa+n), lines inside it, and lines anywhere, with a FlushAll
// partway so lines of a stale epoch (valid but not resident) exist too.
func fillAround(c *Cache, seed int64, pa, n uint64) {
	rng := rand.New(rand.NewSource(seed))
	line := uint64(1) << c.cfg.LineBits
	accesses := 3 * c.cfg.Sets * c.cfg.Ways
	for i := 0; i < accesses; i++ {
		if i == accesses/3 {
			c.FlushAll()
		}
		near := uint64(rng.Intn(9)-4) * line
		var a uint64
		switch rng.Intn(5) {
		case 0:
			a = pa + near
		case 1:
			a = pa + n + near
		case 2:
			a = pa + uint64(rng.Int63n(int64(min(n, 1<<40))+1))
		case 3:
			a = uint64(rng.Intn(1 << 20))
		default:
			a = rng.Uint64()
		}
		c.Access(a)
	}
}

// checkFlushRange fills twin caches identically, runs FlushRange on one
// and the oracle on the other, and requires the same count and the same
// state for every line — tag, valid bit, epoch and LRU stamp — and the
// same statistics. It returns the number of lines flushed.
func checkFlushRange(t *testing.T, cfg Config, seed int64, pa, n uint64) int {
	t.Helper()
	got, want := New(cfg), New(cfg)
	fillAround(got, seed, pa, n)
	fillAround(want, seed, pa, n)
	gotN, wantN := got.FlushRange(pa, n), oracleFlush(want, pa, n)
	if gotN != wantN {
		t.Fatalf("%+v FlushRange(%#x, %#x) flushed %d lines, oracle %d", cfg, pa, n, gotN, wantN)
	}
	for s := range got.sets {
		for w := range got.sets[s] {
			if g, o := got.sets[s][w], want.sets[s][w]; g != o {
				t.Fatalf("%+v FlushRange(%#x, %#x): set %d way %d is %+v, oracle %+v", cfg, pa, n, s, w, g, o)
			}
		}
	}
	if got.Hits != want.Hits || got.Misses != want.Misses || got.Evictions != want.Evictions ||
		got.stamp != want.stamp || got.epoch != want.epoch {
		t.Fatalf("%+v FlushRange(%#x, %#x) moved the statistics", cfg, pa, n)
	}
	return gotN
}

// flushConfigs are the cache shapes FlushRange is checked on: the
// machine's page-colored L2 geometry scaled down (region bits above
// the in-partition set bits), a shared cache, and a partitioning whose
// region bits overlap the set bits.
var flushConfigs = []Config{
	{Sets: 64, Ways: 4, LineBits: 6, HitCycles: 2, MissCycles: 40, Partitions: 4, PartitionShift: 12},
	sharedCfg(),
	{Sets: 64, Ways: 4, LineBits: 6, HitCycles: 2, MissCycles: 40, Partitions: 4, PartitionShift: 6},
}

func TestFlushRange(t *testing.T) {
	const region = 1 << 12 // flushConfigs[0]'s partition span
	rows := []struct {
		name    string
		cfg     int // index into flushConfigs
		pa, n   uint64
		flushes bool // the oracle must find lines to flush
	}{
		{"partitioned/empty", 0, region, 0, false},
		{"partitioned/sub-line", 0, region + 0x48, 8, true},
		{"partitioned/two-lines", 0, region + 0x3c, 8, true},
		{"partitioned/region", 0, 2 * region, region, true},
		{"partitioned/crosses-partition", 0, 2*region - 0x100, 0x200, true},
		{"partitioned/wraps-partitions", 0, 3 * region, 2 * region, true},
		{"partitioned/one-lap", 0, 0, 4 * region, true},
		{"partitioned/whole-cache", 0, 0, math.MaxUint64, true},
		{"partitioned/top-of-memory", 0, math.MaxUint64 - 0x80, 0x1000, true},
		{"shared/empty", 1, 0x2000, 0, false},
		{"shared/sub-line", 1, 0x2010, 0x20, true},
		{"shared/wraps-sets", 1, 60 << 6, 8 << 6, true},
		{"shared/sets-lines", 1, 0x1000, 64 << 6, true},
		{"shared/region", 1, region, region, true},
		{"shared/whole-cache", 1, 0, math.MaxUint64, true},
		{"overlapping/sub-line", 2, 0x1040, 1, true},
		{"overlapping/short", 2, 0x1000, 5 << 6, true},
		{"overlapping/region", 2, region, region, true},
		{"overlapping/whole-cache", 2, 0, math.MaxUint64, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				n := checkFlushRange(t, flushConfigs[r.cfg], seed, r.pa, r.n)
				if r.flushes && n == 0 {
					t.Fatalf("seed %d: nothing to flush, the row checks nothing", seed)
				}
			}
		})
	}
	// FlushRange stays a flush: lines it invalidated miss and lines it
	// kept still hit. A LineRef follows its own line: the flushed line's
	// ref dies, while the kept line's ref (same set) still hits, exactly
	// as a scanning access on a twin cache does.
	t.Run("selective", func(t *testing.T) {
		c, twin := New(sharedCfg()), New(sharedCfg())
		var kept, flushed LineRef
		c.AccessRef(0x0000, &kept)
		c.AccessRef(0x10000, &flushed)
		twin.Access(0x0000)
		twin.Access(0x10000)
		if n := c.FlushRange(0x10000, 1); n != 1 || c.Probe(0x10000) || !c.Probe(0x0000) {
			t.Fatalf("selective flush wrong: n=%d", n)
		}
		twin.FlushRange(0x10000, 1)
		if c.TouchFast(0x10000, &flushed) {
			t.Fatal("the flushed line's LineRef survived FlushRange")
		}
		if !c.TouchFast(0x0000, &kept) {
			t.Fatal("the kept line's LineRef died in FlushRange")
		}
		twin.Access(0x0000)
		if !slices.Equal(c.Snapshot(), twin.Snapshot()) || c.Hits != twin.Hits || c.Misses != twin.Misses {
			t.Fatal("a hit through the kept line's LineRef differs from a scanning hit")
		}
	})
}

// FuzzFlushRange checks FlushRange against the brute-force sweep on
// random ranges over every shape in flushConfigs. The seed corpus runs
// with the ordinary tests.
func FuzzFlushRange(f *testing.F) {
	f.Add(uint8(0), int64(1), uint64(0x2000), uint64(0x1000))
	f.Add(uint8(0), int64(2), uint64(0x1fc0), uint64(0x80))
	f.Add(uint8(1), int64(3), uint64(0x2010), uint64(0x20))
	f.Add(uint8(1), int64(4), uint64(0), uint64(math.MaxUint64))
	f.Add(uint8(2), int64(5), uint64(0x3000), uint64(0x2000))
	f.Add(uint8(2), int64(6), uint64(math.MaxUint64-0x40), uint64(0x100))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, pa, n uint64) {
		checkFlushRange(t, flushConfigs[int(shape)%len(flushConfigs)], seed, pa, n)
	})
}
