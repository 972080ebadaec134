package cache

import (
	"math/rand"
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

func TestFlushIf(t *testing.T) {
	c := New(sharedCfg())
	c.Access(0x0000)
	c.Access(0x10000)
	n := c.FlushIf(func(lineAddr uint64) bool { return lineAddr<<6 >= 0x10000 })
	if n != 1 || c.Probe(0x10000) || !c.Probe(0x0000) {
		t.Fatalf("selective flush wrong: n=%d", n)
	}
}

// partCfg is a page-colored cache in the shape of Sanctum's LLC: four
// 64 KiB DRAM regions, each owning a quarter of the sets.
func partCfg() Config {
	cfg := sharedCfg()
	cfg.Partitions = 4
	cfg.PartitionOf = func(pa uint64) int { return int(pa>>16) % 4 }
	return cfg
}

// randomStream returns n line-aligned addresses spread over all four
// regions of partCfg, reused often enough to hit as well as evict.
func randomStream(rng *rand.Rand, n int) []uint64 {
	pas := make([]uint64, n)
	for i := range pas {
		pas[i] = uint64(rng.Intn(4))<<16 | uint64(rng.Intn(256))<<6
	}
	return pas
}

// TestFlushPartitionIfMatchesFlushIf flushes one region from two
// identical partitioned caches, one by a full FlushIf scan and one by
// the partition-scoped scan, and requires the two caches to stay
// indistinguishable: the same count and resident set, and the same
// statistics under further traffic.
func TestFlushPartitionIfMatchesFlushIf(t *testing.T) {
	for r := 0; r < 4; r++ {
		rng := rand.New(rand.NewSource(int64(r) + 1))
		full, scoped := New(partCfg()), New(partCfg())
		fill := randomStream(rng, 2000)
		for _, pa := range fill {
			full.Access(pa)
			scoped.Access(pa)
		}
		var ref LineRef
		scoped.AccessRef(fill[len(fill)-1], &ref)
		full.Access(fill[len(fill)-1])

		inRegion := func(lineAddr uint64) bool { return int(lineAddr<<6>>16) == r }
		nFull := full.FlushIf(inRegion)
		nScoped := scoped.FlushPartitionIf(r, inRegion)
		if nFull != nScoped || nFull == 0 {
			t.Fatalf("region %d: FlushIf dropped %d lines, FlushPartitionIf %d", r, nFull, nScoped)
		}
		if full.Live() != scoped.Live() {
			t.Fatalf("region %d: live %d vs %d", r, full.Live(), scoped.Live())
		}
		for _, pa := range fill {
			if full.Probe(pa) != scoped.Probe(pa) {
				t.Fatalf("region %d: line %#x resident %v after FlushIf, %v after FlushPartitionIf",
					r, pa, full.Probe(pa), scoped.Probe(pa))
			}
		}
		if scoped.TouchFast(fill[len(fill)-1], &ref) {
			t.Fatalf("region %d: a LineRef survived FlushPartitionIf", r)
		}
		for _, pa := range randomStream(rng, 2000) {
			full.Access(pa)
			scoped.Access(pa)
		}
		if full.Hits != scoped.Hits || full.Misses != scoped.Misses || full.Evictions != scoped.Evictions {
			t.Fatalf("region %d: stats diverged: %d/%d/%d vs %d/%d/%d", r,
				full.Hits, full.Misses, full.Evictions, scoped.Hits, scoped.Misses, scoped.Evictions)
		}
	}
}

// TestFlushPartitionIfUnpartitioned checks the fallback: on a shared
// cache the partition argument is ignored and every set is scanned.
func TestFlushPartitionIfUnpartitioned(t *testing.T) {
	c := New(sharedCfg())
	c.Access(0x0000)
	c.Access(0x10000)
	c.Access(0x20040)
	n := c.FlushPartitionIf(0, func(lineAddr uint64) bool { return lineAddr<<6 >= 0x10000 })
	if n != 2 || c.Probe(0x10000) || c.Probe(0x20040) || !c.Probe(0x0000) {
		t.Fatalf("unpartitioned FlushPartitionIf wrong: n=%d", n)
	}
}

func TestPartitionIsolation(t *testing.T) {
	// Two domains get disjoint halves of the cache; an access by one can
	// never evict the other, whatever the addresses.
	regionOf := func(pa uint64) int { return int(pa >> 16) } // 64 KiB regions
	cfg := sharedCfg()
	cfg.PartitionOf = regionOf
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
		{Sets: 64, Ways: 2, LineBits: 6, PartitionOf: func(uint64) int { return 0 }, Partitions: 0},
		{Sets: 64, Ways: 2, LineBits: 6, PartitionOf: func(uint64) int { return 0 }, Partitions: 7},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
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
