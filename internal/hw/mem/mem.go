// Package mem models the physical memory of the simulated machine.
//
// Memory is sparse: pages are materialized (zero-filled) on first touch,
// so a simulated machine can expose a large physical address space while
// the host allocation stays proportional to the pages actually used.
// All privileged software in the reproduction (the security monitor) and
// all hardware-mediated paths (page-table walks, DMA, the interpreter's
// loads and stores) ultimately read and write through this package.
//
// Two hooks support the machine's fast-path execution engine without
// changing any architectural semantics: an inline code-write check on
// every store (so decoded-instruction caches can be dropped when code
// is overwritten), and Window, a last-page pointer cache that lets a
// core skip the page-map lookup on same-page traffic.
//
// The page table itself is safe for concurrent cores: pages live in a
// flat atomic pointer table (materialization is a compare-and-swap, so
// two harts touching a fresh page agree on one backing array), and the
// code-page mark set and the ZeroRange generation are atomics. This is
// exactly the sharing model of the hardware being simulated — a memory
// bus that many harts address concurrently — and it costs the
// single-threaded fast path nothing: the atomic loads compile to plain
// loads on the host ISAs we run on, and the pointer-table index replaces
// what used to be a map lookup. Byte-level races between harts writing
// the same location are the guest program's business, as on real
// hardware; the security monitor's region isolation keeps protection
// domains on disjoint pages.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Page geometry, shared by the whole simulator.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	PageMask = PageSize - 1
)

// Errors reported by physical memory. Higher layers translate these into
// architectural access faults.
var (
	ErrOutOfRange = errors.New("mem: physical address out of range")
	ErrUnaligned  = errors.New("mem: unaligned access")
	ErrBadWidth   = errors.New("mem: unsupported access width")
	// ErrCOWProtected is returned for any write landing in a page the
	// security monitor has frozen copy-on-write (enclave snapshots): the
	// page's contents back one or more aliased mappings and may only
	// change through the monitor's copy-then-retry fault protocol, never
	// in place. This is the physical-memory backstop — page-table
	// permissions already deny guest stores; this catches host-level
	// writes (S-mode kernel stores, DMA) that bypass a page walk.
	ErrCOWProtected = errors.New("mem: write to a copy-on-write frozen page")
)

// Phys is a sparse physical memory of a fixed size.
type Phys struct {
	size    uint64
	pages   []atomic.Pointer[[PageSize]byte]
	touched atomic.Int64 // materialized pages, for TouchedPages

	// codePages marks pages whose contents feed a consumer-side cache
	// (the machine's decoded-instruction caches). Every write checks
	// it inline — no indirect call on the store hot path — and a write
	// landing in a marked page clears the set and fires onCodeWrite.
	codePages   []atomic.Uint64
	onCodeWrite func()

	// zeroGen invalidates Window pointer caches: ZeroRange advances it
	// after taking pages out of the table, so every Window access that
	// starts later refills through the table. An access that passed its
	// check before the advance may still be running; that is why a
	// dropped page waits in parked until Recycle.
	zeroGen atomic.Uint64

	// parked holds the pages ZeroRange took out of the table, in the
	// order it dropped them; parkBase counts the pages that ever left
	// the front of the list. Recycle moves them to free once its caller
	// knows no access begun before the drop is still running. At most
	// maxParked pages wait; further drops go to the GC.
	parkMu   sync.Mutex
	parked   []*[PageSize]byte
	parkBase uint64

	// free holds recycled pages for page to materialize again. It is
	// per-Phys, so a page never moves between machines, and the GC
	// reclaims what sits in it unused.
	free sync.Pool

	// refs counts, per page, how many snapshot/alias holders reference
	// the page's contents (the monitor's enclave-snapshot subsystem:
	// one reference for the snapshot itself plus one per clone still
	// aliasing the page). A page with a nonzero count must not be
	// scrubbed or re-allocated; tests use TotalRefs to prove teardown
	// returns every count to zero.
	refs []atomic.Uint32

	// cowPages marks pages frozen copy-on-write: every write path of
	// this package (Store, WriteBytes — the paths S-mode software and
	// DMA reach) refuses writes into a marked page with
	// ErrCOWProtected. The monitor's own page copies target unmarked
	// destination pages, so the mark never blocks the fault protocol.
	cowPages []atomic.Uint64
}

// New returns a physical memory covering addresses [0, size). Size is
// rounded up to a whole number of pages.
func New(size uint64) *Phys {
	size = (size + PageMask) &^ uint64(PageMask)
	return &Phys{
		size:      size,
		pages:     make([]atomic.Pointer[[PageSize]byte], size>>PageBits),
		codePages: make([]atomic.Uint64, (size>>PageBits+63)/64),
		refs:      make([]atomic.Uint32, size>>PageBits),
		cowPages:  make([]atomic.Uint64, (size>>PageBits+63)/64),
	}
}

// Size returns the extent of physical memory in bytes.
func (m *Phys) Size() uint64 { return m.size }

// Pages returns the number of 4 KiB pages in the address space.
func (m *Phys) Pages() uint64 { return m.size >> PageBits }

// SetCodeWriteHook installs fn to be called whenever a write — a guest
// store, a Go-level WriteBytes (loaders, DMA), or a ZeroRange scrub —
// lands in a page marked by MarkCodePage. The mark set is cleared
// before fn runs; the consumer re-marks pages as it refills. fn must be
// safe to call from any hart (the machine's implementation only bumps
// per-core atomic generations). Install once at machine construction,
// before any concurrent execution.
func (m *Phys) SetCodeWriteHook(fn func()) { m.onCodeWrite = fn }

// MarkCodePage records that the page containing addr feeds a
// consumer-side cache that must be invalidated when the page is
// written.
func (m *Phys) MarkCodePage(addr uint64) {
	p := addr >> PageBits
	m.codePages[p>>6].Or(1 << (p & 63))
}

// noteWrite fires the code-write hook if [addr, addr+n) touches a
// marked page, reporting whether it did. n > 0; the range is already
// validated.
func (m *Phys) noteWrite(addr, n uint64) bool {
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; ; p++ {
		if m.codePages[p>>6].Load()&(1<<(p&63)) != 0 {
			return m.codeWriteHit()
		}
		if p >= last {
			return false
		}
	}
}

// codeWriteHit is the marked-code-page write slow path: the snoop set
// resets (every marked page re-registers on its next fetch) and the
// code-write hook fires.
func (m *Phys) codeWriteHit() bool {
	for i := range m.codePages {
		m.codePages[i].Store(0)
	}
	if m.onCodeWrite != nil {
		m.onCodeWrite()
	}
	return true
}

// Retain adds one alias reference to the page containing addr. The
// security monitor takes a reference for a snapshot freezing the page
// and one per clone aliasing it.
func (m *Phys) Retain(addr uint64) { m.refs[addr>>PageBits].Add(1) }

// ReleaseRef drops one alias reference from the page containing addr,
// returning the remaining count. Releasing below zero is a monitor
// bug and panics rather than silently corrupting the accounting.
func (m *Phys) ReleaseRef(addr uint64) uint32 {
	n := m.refs[addr>>PageBits].Add(^uint32(0))
	if n == ^uint32(0) {
		panic("mem: page reference released below zero")
	}
	return n
}

// PageRefs reports the alias reference count of the page containing
// addr.
func (m *Phys) PageRefs(addr uint64) uint32 { return m.refs[addr>>PageBits].Load() }

// TotalRefs sums every page's alias reference count — the leak check
// tests run after snapshot/clone teardown, expecting zero.
func (m *Phys) TotalRefs() uint64 {
	var total uint64
	for i := range m.refs {
		total += uint64(m.refs[i].Load())
	}
	return total
}

// RangeHasRefs reports whether any page of [addr, addr+n) holds alias
// references; the monitor refuses to scrub such a range.
func (m *Phys) RangeHasRefs(addr, n uint64) bool {
	if n == 0 {
		return false
	}
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; p <= last && p < uint64(len(m.refs)); p++ {
		if m.refs[p].Load() != 0 {
			return true
		}
	}
	return false
}

// MarkCOW freezes the page containing addr copy-on-write: subsequent
// Store/WriteBytes into it fail with ErrCOWProtected until ClearCOW.
func (m *Phys) MarkCOW(addr uint64) {
	p := addr >> PageBits
	m.cowPages[p>>6].Or(1 << (p & 63))
}

// ClearCOW unfreezes the page containing addr.
func (m *Phys) ClearCOW(addr uint64) {
	p := addr >> PageBits
	m.cowPages[p>>6].And(^uint64(1 << (p & 63)))
}

// IsCOW reports whether the page containing addr is frozen
// copy-on-write. The machine's store path uses it to fault guest
// stores that reach a frozen page through a stale translation.
func (m *Phys) IsCOW(addr uint64) bool {
	p := addr >> PageBits
	return m.cowPages[p>>6].Load()&(1<<(p&63)) != 0
}

// cowDenies reports whether a write of n bytes at addr touches any
// frozen page. The range is already validated and n > 0.
func (m *Phys) cowDenies(addr, n uint64) bool {
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; p <= last; p++ {
		if m.cowPages[p>>6].Load()&(1<<(p&63)) != 0 {
			return true
		}
	}
	return false
}

// page returns the backing page for ppn, materializing it if needed
// from a recycled page (see Recycle) or a fresh one. Two harts
// materializing the same page race through a compare-and-swap and agree
// on one winner; the loser's page, never published, goes back to the
// free pool.
func (m *Phys) page(ppn uint64) *[PageSize]byte {
	if p := m.pages[ppn].Load(); p != nil {
		return p
	}
	p, _ := m.free.Get().(*[PageSize]byte)
	if p == nil {
		p = new([PageSize]byte)
	}
	if m.pages[ppn].CompareAndSwap(nil, p) {
		m.touched.Add(1)
		return p
	}
	m.free.Put(p)
	return m.pages[ppn].Load()
}

// TouchedPages reports how many pages have been materialized; useful for
// asserting that the simulation stays sparse.
func (m *Phys) TouchedPages() int { return int(m.touched.Load()) }

func (m *Phys) checkRange(addr, n uint64) error {
	if addr >= m.size || n > m.size-addr {
		return fmt.Errorf("%w: %#x+%d (size %#x)", ErrOutOfRange, addr, n, m.size)
	}
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Phys) ReadBytes(addr uint64, dst []byte) error {
	if err := m.checkRange(addr, uint64(len(dst))); err != nil {
		return err
	}
	for len(dst) > 0 {
		ppn, off := addr>>PageBits, addr&PageMask
		n := copy(dst, m.page(ppn)[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies src into memory starting at addr. Writes touching
// a copy-on-write frozen page are refused whole with ErrCOWProtected
// before any byte lands.
func (m *Phys) WriteBytes(addr uint64, src []byte) error {
	if err := m.checkRange(addr, uint64(len(src))); err != nil {
		return err
	}
	if len(src) > 0 {
		if m.cowDenies(addr, uint64(len(src))) {
			return fmt.Errorf("%w: %#x+%d", ErrCOWProtected, addr, len(src))
		}
		m.noteWrite(addr, uint64(len(src)))
	}
	for len(src) > 0 {
		ppn, off := addr>>PageBits, addr&PageMask
		n := copy(m.page(ppn)[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
	return nil
}

// checkAccess validates width, alignment and range for Load/Store.
func (m *Phys) checkAccess(addr uint64, width int) error {
	switch width {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("%w: %d", ErrBadWidth, width)
	}
	if addr&(uint64(width)-1) != 0 {
		return fmt.Errorf("%w: %#x width %d", ErrUnaligned, addr, width)
	}
	return m.checkRange(addr, uint64(width))
}

// loadFrom reads a little-endian value from a page. The access is
// naturally aligned, so it never crosses the page. The masks bound the
// slice offsets so the compiler drops its bounds checks.
func loadFrom(p *[PageSize]byte, off uint64, width int) uint64 {
	off &= PageMask
	switch width {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off&^uint64(1):]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off&^uint64(3):]))
	default:
		return binary.LittleEndian.Uint64(p[off&^uint64(7):])
	}
}

// storeTo writes a little-endian value into a page.
func storeTo(p *[PageSize]byte, off uint64, width int, val uint64) {
	off &= PageMask
	switch width {
	case 1:
		p[off] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(p[off&^uint64(1):], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(p[off&^uint64(3):], uint32(val))
	default:
		binary.LittleEndian.PutUint64(p[off&^uint64(7):], val)
	}
}

// Load reads a naturally-aligned little-endian value of width 1, 2, 4 or
// 8 bytes.
func (m *Phys) Load(addr uint64, width int) (uint64, error) {
	if err := m.checkAccess(addr, width); err != nil {
		return 0, err
	}
	return loadFrom(m.page(addr>>PageBits), addr&PageMask, width), nil
}

// Store writes a naturally-aligned little-endian value of width 1, 2, 4
// or 8 bytes. Stores into a copy-on-write frozen page are refused with
// ErrCOWProtected.
func (m *Phys) Store(addr uint64, width int, val uint64) error {
	if err := m.checkAccess(addr, width); err != nil {
		return err
	}
	if m.IsCOW(addr) {
		return fmt.Errorf("%w: %#x", ErrCOWProtected, addr)
	}
	m.noteWrite(addr, uint64(width))
	storeTo(m.page(addr>>PageBits), addr&PageMask, width, val)
	return nil
}

// ZeroRange clears [addr, addr+n). The security monitor uses this when
// cleaning a memory resource before re-allocation (Fig 2 of the paper).
// Whole pages are de-materialized, so TouchedPages falls back to the
// sparse baseline; partial pages are zeroed in place.
//
// Each dropped page is parked, not freed: a hart may have checked its
// Window against the old zeroGen just before the drop and still be
// writing through it. Recycle later clears parked pages and hands them
// to the free pool, so re-materializing them allocates nothing.
func (m *Phys) ZeroRange(addr, n uint64) error {
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	m.noteWrite(addr, n)
	// Holding parkMu across the loop keeps Parked from counting a page
	// before the zeroGen advance below.
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	end := addr + n
	for addr < end {
		ppn, off := addr>>PageBits, addr&PageMask
		chunk := uint64(PageSize) - off
		if chunk > end-addr {
			chunk = end - addr
		}
		if off == 0 && chunk == PageSize {
			// A whole page reads as zero once out of the table; dropping
			// it keeps host memory proportional to live pages.
			if p := m.pages[ppn].Swap(nil); p != nil {
				m.touched.Add(-1)
				if len(m.parked) < maxParked {
					m.parked = append(m.parked, p)
				}
			}
		} else if p := m.pages[ppn].Load(); p != nil {
			for i := off; i < off+chunk; i++ {
				p[i] = 0
			}
		}
		// Untouched pages are already zero; skip materializing them.
		addr += chunk
	}
	m.zeroGen.Add(1)
	return nil
}

// maxParked bounds the pages ZeroRange keeps for Recycle (1 MiB of
// host memory). Scrubs with no Recycle between them, such as
// the monitor's single-page zeroing outside clean_region, cannot grow
// the list past it.
const maxParked = 256

// Parked returns a mark covering every page ZeroRange has parked so
// far. Pass it to Recycle once no access begun before the call can
// still be running.
func (m *Phys) Parked() uint64 {
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	return m.parkBase + uint64(len(m.parked))
}

// Recycle clears the pages parked up to mark and moves them into the
// free pool, where page materializes them again. Clearing here, not in
// ZeroRange, also wipes what a store that was still running at the
// drop left in the page. The caller guarantees that no access which
// found one of them through the page table or a Window before mark was
// taken is still running; for the machine's harts,
// machine.ScrubRange gets that from an instruction-boundary barrier on
// every core.
func (m *Phys) Recycle(mark uint64) {
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	if mark <= m.parkBase {
		return
	}
	k := min(mark-m.parkBase, uint64(len(m.parked)))
	for _, p := range m.parked[:k] {
		clear(p[:])
		m.free.Put(p)
	}
	rest := copy(m.parked, m.parked[k:])
	clear(m.parked[rest:])
	m.parked = m.parked[:rest]
	m.parkBase += k
}

// ZeroPage clears the page containing addr.
func (m *Phys) ZeroPage(addr uint64) error {
	return m.ZeroRange(addr&^uint64(PageMask), PageSize)
}

// Window is a last-page pointer cache in front of a Phys. The common
// same-page access skips the page-table lookup entirely; semantics
// (alignment, width, range checks, error values) are identical to
// Phys.Load/Store, which the machine's fast-vs-reference equivalence
// tests rely on. A Window is single-consumer state (one per core per
// traffic class) and is invalidated automatically when ZeroRange may
// have de-materialized its page.
type Window struct {
	m    *Phys
	ppn  uint64
	page *[PageSize]byte
	gen  uint64
}

// Reset points the window at a memory and drops any cached page.
func (w *Window) Reset(m *Phys) {
	w.m = m
	w.page = nil
}

// lookup returns the backing page for addr, which the caller has
// already range-checked. LoadFast/StoreFast repeat this hit check
// inline (one call frame per access, as the interpreter's hot loop
// requires); the zeroGen load is atomic, which is a plain load on the
// host ISAs we target.
func (w *Window) lookup(addr uint64) *[PageSize]byte {
	ppn := addr >> PageBits
	if w.page != nil && w.ppn == ppn && w.gen == w.m.zeroGen.Load() {
		return w.page
	}
	return w.refill(ppn)
}

// refill re-validates the window after a miss or a ZeroRange.
func (w *Window) refill(ppn uint64) *[PageSize]byte {
	gen := w.m.zeroGen.Load()
	p := w.m.page(ppn)
	w.ppn, w.page, w.gen = ppn, p, gen
	return p
}

// Load is Phys.Load through the window's page cache.
func (w *Window) Load(addr uint64, width int) (uint64, error) {
	if err := w.m.checkAccess(addr, width); err != nil {
		return 0, err
	}
	return loadFrom(w.lookup(addr), addr&PageMask, width), nil
}

// LoadFast is Load without the width/alignment/range checks, for
// callers that can prove them: the machine's translated fast path only
// produces naturally-aligned accesses of ISA widths to physical
// addresses its isolation check already bounded. The window hit check
// is open-coded (not via lookup) so the whole access stays one call
// frame deep.
func (w *Window) LoadFast(addr uint64, width int) uint64 {
	ppn := addr >> PageBits
	p := w.page
	if p == nil || w.ppn != ppn || w.gen != w.m.zeroGen.Load() {
		p = w.refill(ppn)
	}
	return loadFrom(p, addr&PageMask, width)
}

// Load64 is LoadFast specialized to the 8-byte width — the dominant
// access on the block engine's hot path — shaped to inline at the call
// site: the open-coded window hit check and one fixed-width load, with
// the refill outlined.
func (w *Window) Load64(addr uint64) uint64 {
	p := w.page
	if p == nil || w.ppn != addr>>PageBits || w.gen != w.m.zeroGen.Load() {
		p = w.refill(addr >> PageBits)
	}
	return binary.LittleEndian.Uint64(p[addr&PageMask&^uint64(7):])
}

// StoreFast is Store without the width/alignment/range checks, under
// LoadFast's caller contract — which now also includes the COW check:
// the caller must have established the page is not frozen (IsCOW), as
// the machine's fast store path does after translation. The code-write
// check still observes the store.
func (w *Window) StoreFast(addr uint64, width int, val uint64) {
	w.StoreFastNoted(addr, width, val)
}

// StoreFastNoted is StoreFast, additionally reporting whether the
// write landed in a marked code page (and therefore fired the
// code-write hook). The block engine uses the verdict to decide
// whether the store could have moved its guard word.
func (w *Window) StoreFastNoted(addr uint64, width int, val uint64) bool {
	hitCode := w.m.noteWrite(addr, uint64(width))
	ppn := addr >> PageBits
	p := w.page
	if p == nil || w.ppn != ppn || w.gen != w.m.zeroGen.Load() {
		p = w.refill(ppn)
	}
	storeTo(p, addr&PageMask, width, val)
	return hitCode
}

// StoreFastBlock is the block engine's fused store: the COW backstop,
// the code-write check and the window write in one call frame, sharing
// one page-number computation. cow reports the store was refused (a
// frozen page — the caller raises the store-access trap, nothing was
// written); hitCode reports the write landed in a marked code page and
// fired the code-write hook. The caller contract is StoreFast's plus
// natural alignment, so the access never crosses a page and one page's
// bits decide both checks.
func (w *Window) StoreFastBlock(addr uint64, width int, val uint64) (cow, hitCode bool) {
	pg := addr >> PageBits
	bit := uint64(1) << (pg & 63)
	if w.m.cowPages[pg>>6].Load()&bit != 0 {
		return true, false
	}
	if w.m.codePages[pg>>6].Load()&bit != 0 {
		hitCode = w.m.codeWriteHit()
	}
	p := w.page
	if p == nil || w.ppn != pg || w.gen != w.m.zeroGen.Load() {
		p = w.refill(pg)
	}
	storeTo(p, addr&PageMask, width, val)
	return false, hitCode
}

// Store64Block is StoreFastBlock specialized to the 8-byte width,
// shaped to inline: the two page-bit checks fold into one OR-ed branch
// and the write is fixed-width, with the refused/marked-page cases
// outlined. Both bitmaps are still read directly — the OR is a pure
// fast-path fold, not a derived union.
func (w *Window) Store64Block(addr, val uint64) (cow, hitCode bool) {
	pg := addr >> PageBits
	if (w.m.cowPages[pg>>6].Load()|w.m.codePages[pg>>6].Load())&(1<<(pg&63)) != 0 {
		return w.store64BlockSlow(addr, pg, val)
	}
	p := w.page
	if p == nil || w.ppn != pg || w.gen != w.m.zeroGen.Load() {
		p = w.refill(pg)
	}
	binary.LittleEndian.PutUint64(p[addr&PageMask&^uint64(7):], val)
	return false, false
}

// store64BlockSlow disambiguates Store64Block's marked-page branch: a
// frozen page refuses the store, a marked code page takes the
// code-write hit and then writes.
func (w *Window) store64BlockSlow(addr, pg, val uint64) (cow, hitCode bool) {
	if w.m.cowPages[pg>>6].Load()&(1<<(pg&63)) != 0 {
		return true, false
	}
	hitCode = w.m.codeWriteHit()
	p := w.lookup(addr)
	binary.LittleEndian.PutUint64(p[addr&PageMask&^uint64(7):], val)
	return false, hitCode
}

// Store is Phys.Store through the window's page cache. The code-write
// and COW checks still observe the store.
func (w *Window) Store(addr uint64, width int, val uint64) error {
	if err := w.m.checkAccess(addr, width); err != nil {
		return err
	}
	if w.m.IsCOW(addr) {
		return fmt.Errorf("%w: %#x", ErrCOWProtected, addr)
	}
	w.m.noteWrite(addr, uint64(width))
	storeTo(w.lookup(addr), addr&PageMask, width, val)
	return nil
}
