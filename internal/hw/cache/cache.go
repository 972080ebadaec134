// Package cache models the set-associative caches of the simulated
// machine with a deterministic cycle cost per access. The shared
// last-level cache is the side-channel surface the paper's threat model
// centres on: Sanctum partitions it by DRAM region (page coloring) so
// that no two protection domains contend for the same sets, while
// Keystone (and the insecure baseline) leave it shared. The model
// exposes exactly the observable an attacker has on real hardware —
// the latency of its own accesses — plus white-box inspection hooks for
// tests.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Config describes a cache.
type Config struct {
	Sets       int    // number of sets; power of two
	Ways       int    // associativity
	LineBits   uint   // log2 of line size in bytes
	HitCycles  uint64 // latency of a hit
	MissCycles uint64 // latency of a miss (includes fill)

	// PartitionOf, when non-nil, maps a physical address to a partition
	// index in [0, Partitions); each partition owns Sets/Partitions
	// consecutive sets. This models Sanctum's page-colored LLC where the
	// partition is the DRAM region. When nil the cache is fully shared.
	PartitionOf func(pa uint64) int
	Partitions  int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || bits.OnesCount(uint(c.Sets)) != 1 {
		return fmt.Errorf("cache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d", c.Ways)
	}
	if c.LineBits < 3 || c.LineBits > 12 {
		return fmt.Errorf("cache: line bits %d outside [3,12]", c.LineBits)
	}
	if c.PartitionOf != nil {
		if c.Partitions <= 0 || c.Sets%c.Partitions != 0 {
			return fmt.Errorf("cache: %d partitions does not divide %d sets", c.Partitions, c.Sets)
		}
	}
	return nil
}

type line struct {
	tag   uint64 // full line address (pa >> LineBits)
	valid bool
	epoch uint64 // flush epoch the line was filled in
	lru   uint64 // last-access stamp
}

// live reports whether the line is resident in the current epoch.
func (l *line) live(epoch uint64) bool { return l.valid && l.epoch == epoch }

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg      Config
	sets     [][]line
	stamp    uint64
	lineBits uint
	setMask  uint64 // Sets-1; Sets is validated to be a power of two

	// fillGen advances whenever the set of resident lines changes (any
	// fill, eviction or flush). A LineRef from an older generation is
	// dead; one from the current generation still points at a valid
	// resident line.
	fillGen uint64

	// epoch implements O(1) full flushes: lines filled in an older
	// epoch are not resident, so FlushAll is one increment instead of
	// a sweep over every way. Core cleaning runs on every protection-
	// domain switch, which makes this the hot path of enclave
	// enter/exit.
	epoch uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// shared serializes the multi-consumer entry points (Access, Probe,
	// the flushes) when the cache is reachable from more than one hart
	// at once — the machine's L2 in parallel-scheduler mode. Per-core
	// caches and deterministic execution leave it off, so the
	// single-threaded fast path pays only an untaken branch. TouchFast
	// and AccessRef are exempt by contract (see SetShared): they stay
	// small enough to inline into the per-instruction hot path.
	shared bool
	mu     sync.Mutex
}

// SetShared(true) latches locking of the multi-consumer entry points
// on. The machine sets it on its shared L2 before spawning the first
// concurrent hart, which is also the happens-before edge that makes
// the plain flag publication safe; it is a one-way latch —
// SetShared(false) is a no-op — because OS goroutines may keep
// touching the cache after any particular parallel run ends.
//
// TouchFast and AccessRef remain lock-free: they are the per-core L1
// fast path, single-consumer by construction (a LineRef belongs to one
// core), and the machine never uses them on the shared L2. Keeping
// them branch-only preserves their inlining into the interpreter's
// per-instruction sequence.
func (c *Cache) SetShared(on bool) {
	if on && !c.shared {
		c.shared = true
	}
}

// LineRef is a consumer-held handle to the line of the last access, the
// cache-model analogue of the machine's last-translation caches: while
// the cache's resident-line set is unchanged, a repeat access to the
// same line can skip the set scan. TouchFast performs bookkeeping
// identical to a scanning hit (stamp, LRU, hit statistic), so the
// observable cache state — contents, replacement order, statistics,
// timing — is bit-identical to calling Access.
type LineRef struct {
	gen  uint64
	line *line
}

// TouchFast re-performs a hit through the ref if it is still valid for
// pa; the hit latency is the cache's Config().HitCycles, which hot
// callers keep in a local. false means the caller must fall back to
// Access/AccessRef.
func (c *Cache) TouchFast(pa uint64, ref *LineRef) bool {
	// A live gen implies ref was set by AccessRef (fillGen never
	// returns to an old value), so line is non-nil and still resident,
	// and its tag is authoritative for the line address.
	if ref.gen != c.fillGen {
		return false
	}
	l := ref.line
	if l.tag != pa>>c.lineBits {
		return false
	}
	c.stamp++
	l.lru = c.stamp
	c.Hits++
	return true
}

// TouchFastN is n consecutive TouchFast hits on the same line in one
// call, for callers that batch a run of same-line accesses with nothing
// else touching the cache in between (the block engine's per-segment
// instruction fetches). It is bit-exact to calling TouchFast n times:
// the stamp advances by n, the line's LRU lands on the last of those
// stamps, and n hits are recorded. false means the caller must fall
// back to per-access TouchFast/AccessRef, which re-establishes the ref.
func (c *Cache) TouchFastN(pa uint64, ref *LineRef, n uint64) bool {
	if ref.gen != c.fillGen {
		return false
	}
	l := ref.line
	if l.tag != pa>>c.lineBits {
		return false
	}
	c.stamp += n
	l.lru = c.stamp
	c.Hits += n
	return true
}

// AccessRef is Access, additionally pointing ref at the touched line so
// the next same-line access can go through TouchFast.
func (c *Cache) AccessRef(pa uint64, ref *LineRef) (hit bool, cycles uint64) {
	hit, cycles, l := c.access(pa)
	*ref = LineRef{line: l, gen: c.fillGen}
	return hit, cycles
}

// New builds a cache. It panics on invalid configuration, which is a
// programming error in platform setup rather than a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets)
	lines := make([]line, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i], lines = lines[:cfg.Ways], lines[cfg.Ways:]
	}
	// fillGen starts above the zero value so a zero LineRef never
	// matches and TouchFast needs no nil check on its line pointer.
	return &Cache{cfg: cfg, sets: sets, lineBits: cfg.LineBits, setMask: uint64(cfg.Sets - 1), fillGen: 1}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// setIndex computes the set for a physical address, honouring
// partitioning.
func (c *Cache) setIndex(pa uint64) int {
	lineAddr := pa >> c.lineBits
	if c.cfg.PartitionOf == nil {
		// Sets is a power of two, so the mask is the modulo.
		return int(lineAddr & c.setMask)
	}
	per := c.cfg.Sets / c.cfg.Partitions
	part := c.cfg.PartitionOf(pa) % c.cfg.Partitions
	if part < 0 {
		part = 0
	}
	return part*per + int(lineAddr%uint64(per))
}

// Access performs a cached access to pa, returning whether it hit and
// the cycle cost. A miss fills the line, evicting LRU if needed.
func (c *Cache) Access(pa uint64) (hit bool, cycles uint64) {
	if c.shared {
		c.mu.Lock()
		hit, cycles, _ = c.access(pa)
		c.mu.Unlock()
		return hit, cycles
	}
	hit, cycles, _ = c.access(pa)
	return hit, cycles
}

// access is the shared body of Access and AccessRef; it also returns
// the line that was hit or filled.
func (c *Cache) access(pa uint64) (hit bool, cycles uint64, l *line) {
	c.stamp++
	set := c.sets[c.setIndex(pa)]
	tag := pa >> c.lineBits
	for i := range set {
		if set[i].live(c.epoch) && set[i].tag == tag {
			set[i].lru = c.stamp
			c.Hits++
			return true, c.cfg.HitCycles, &set[i]
		}
	}
	c.Misses++
	c.fillGen++
	// Fill: choose a non-resident way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].live(c.epoch) {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.Evictions++
fill:
	set[victim] = line{tag: tag, valid: true, epoch: c.epoch, lru: c.stamp}
	return false, c.cfg.MissCycles, &set[victim]
}

// Probe reports whether pa is cached without updating any state; the
// white-box equivalent of a timing probe, used by tests.
func (c *Cache) Probe(pa uint64) bool {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	set := c.sets[c.setIndex(pa)]
	tag := pa >> c.cfg.LineBits
	for i := range set {
		if set[i].live(c.epoch) && set[i].tag == tag {
			return true
		}
	}
	return false
}

// FlushAll invalidates the entire cache (core cleaning). Advancing the
// flush epoch makes every resident line non-live in O(1); this runs on
// every protection-domain switch, so it must not sweep the ways.
func (c *Cache) FlushAll() {
	if c.shared {
		c.mu.Lock()
		c.epoch++
		c.fillGen++
		c.mu.Unlock()
		return
	}
	c.epoch++
	c.fillGen++
}

// FlushIf invalidates lines whose physical line address matches pred,
// returning the count. The SM uses it to clean a DRAM region's cache
// footprint on re-allocation: on the shared LLCs of Keystone and the
// baseline, and on every platform's private L1s. Sanctum's partitioned
// LLC uses FlushPartitionIf instead.
func (c *Cache) FlushIf(pred func(lineAddr uint64) bool) int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.flushSets(c.sets, pred)
}

// FlushPartitionIf is FlushIf restricted to the sets partition part
// owns. It is exact for any pred that only matches lines of addresses
// PartitionOf maps to part — a region predicate on Sanctum's
// page-colored LLC — because setIndex places every such line inside
// those sets. On an unpartitioned cache it scans every set, as FlushIf.
func (c *Cache) FlushPartitionIf(part int, pred func(lineAddr uint64) bool) int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	sets := c.sets
	if c.cfg.PartitionOf != nil {
		per := c.cfg.Sets / c.cfg.Partitions
		sets = sets[part*per : (part+1)*per]
	}
	return c.flushSets(sets, pred)
}

// flushSets invalidates the live lines of sets matching pred and
// returns the count; the caller holds mu if the cache is shared.
func (c *Cache) flushSets(sets [][]line, pred func(lineAddr uint64) bool) int {
	n := 0
	for _, set := range sets {
		for i := range set {
			if set[i].live(c.epoch) && pred(set[i].tag) {
				set[i].valid = false
				n++
			}
		}
	}
	c.fillGen++
	return n
}

// Live returns the number of valid lines.
func (c *Cache) Live() int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].live(c.epoch) {
				n++
			}
		}
	}
	return n
}

// SetOf exposes the set index mapping for tests and attack tooling.
func (c *Cache) SetOf(pa uint64) int { return c.setIndex(pa) }
