package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestCheckRangeHugeN pins the checkRange fix: lengths that overflow a
// 32-bit int (and would misbehave where int is 32 bits) are rejected
// as out-of-range, never wrapped.
func TestCheckRangeHugeN(t *testing.T) {
	m := New(1 << 16)
	for _, n := range []uint64{1 << 31, 1 << 40, 1<<64 - 1} {
		if err := m.ZeroRange(0, n); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ZeroRange(0, %#x) = %v, want out-of-range", n, err)
		}
	}
	// A large but valid range on a large memory works.
	big := New(1 << 33)
	if err := big.ZeroRange(0, 1<<33); err != nil {
		t.Fatalf("full-memory ZeroRange: %v", err)
	}
}

// TestZeroRangeDematerializes checks that scrubbing whole pages
// returns them to the sparse baseline while partial pages are zeroed
// in place.
func TestZeroRangeDematerializes(t *testing.T) {
	m := New(1 << 16)
	for a := uint64(0); a < 4*PageSize; a += PageSize {
		m.Store(a, 8, ^uint64(0))
	}
	if got := m.TouchedPages(); got != 4 {
		t.Fatalf("touched = %d", got)
	}
	// Pages 1 and 2 are covered whole; pages 0 and 3 partially.
	if err := m.ZeroRange(PageSize-8, 2*PageSize+16); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedPages(); got != 2 {
		t.Fatalf("touched after scrub = %d, want 2 (whole pages dropped)", got)
	}
	for _, a := range []uint64{PageSize - 8, PageSize, 2 * PageSize, 3 * PageSize} {
		if v, _ := m.Load(a, 8); v != 0 {
			t.Errorf("addr %#x = %#x, want 0", a, v)
		}
	}
	if v, _ := m.Load(0, 8); v != ^uint64(0) {
		t.Errorf("byte before range was scrubbed")
	}
}

// TestWindowMatchesPhys drives a Window and a bare Phys through the
// same traffic, including a ZeroRange that de-materializes the cached
// page, and requires identical values and errors.
func TestWindowMatchesPhys(t *testing.T) {
	m := New(1 << 16)
	var w Window
	w.Reset(m)
	if err := w.Store(0x1000, 8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Load(0x1000, 8); err != nil || v != 0xDEAD {
		t.Fatalf("window load = %#x, %v", v, err)
	}
	// Same-page access uses the cached pointer; cross-check via Phys.
	if v, _ := m.Load(0x1000, 8); v != 0xDEAD {
		t.Fatal("window store invisible through Phys")
	}
	// De-materialize the cached page; the window must not serve the
	// orphaned pointer.
	if err := m.ZeroRange(0x1000&^uint64(PageMask), PageSize); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Load(0x1000, 8); err != nil || v != 0 {
		t.Fatalf("window read stale page after ZeroRange: %#x, %v", v, err)
	}
	if err := w.Store(0x1000, 8, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(0x1000, 8); v != 7 {
		t.Fatal("window store after ZeroRange lost")
	}
	// Errors are identical to Phys semantics.
	if _, err := w.Load(3, 8); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned window load: %v", err)
	}
	if _, err := w.Load(1<<16, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range window load: %v", err)
	}
	if _, err := w.Load(0, 3); !errors.Is(err, ErrBadWidth) {
		t.Errorf("bad-width window load: %v", err)
	}
}

// TestCodeWriteHook checks the inline code-write tracking every store
// path goes through.
func TestCodeWriteHook(t *testing.T) {
	m := New(1 << 16)
	fired := 0
	m.SetCodeWriteHook(func() { fired++ })
	m.MarkCodePage(0x3000)
	m.Store(0x1000, 8, 1) // unmarked page: no fire
	if fired != 0 {
		t.Fatal("store to unmarked page fired the hook")
	}
	m.Store(0x3008, 8, 1)
	if fired != 1 {
		t.Fatalf("store to marked page: fired = %d", fired)
	}
	// The mark set is cleared before the hook runs.
	m.Store(0x3010, 8, 1)
	if fired != 1 {
		t.Fatalf("mark survived the flush: fired = %d", fired)
	}
	m.MarkCodePage(0x4000)
	if err := m.ZeroRange(0x4000, PageSize); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("ZeroRange over marked page: fired = %d", fired)
	}
	m.MarkCodePage(0x5000)
	if err := m.WriteBytes(0x4ff8, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("WriteBytes crossing into marked page: fired = %d", fired)
	}
}

// fillPages writes a nonzero pattern over every byte of n pages from
// ppn on.
func fillPages(t *testing.T, m *Phys, ppn, n uint64) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xA5}, int(n*PageSize))
	if err := m.WriteBytes(ppn<<PageBits, buf); err != nil {
		t.Fatal(err)
	}
}

// requireZeroPage fails unless every byte of page ppn reads zero.
func requireZeroPage(t *testing.T, m *Phys, ppn uint64) {
	t.Helper()
	got := make([]byte, PageSize)
	if err := m.ReadBytes(ppn<<PageBits, got); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("page %d byte %d = %#x after recycling, want 0", ppn, i, got[i])
	}
}

// TestZeroRangeRecycledPageReadsZero scrubs written pages, recycles
// them, and then materializes pages through every access path — the
// scrubbed pages themselves and pages never touched before — requiring
// each to read as zero, with TouchedPages tracking materializations as
// before.
func TestZeroRangeRecycledPageReadsZero(t *testing.T) {
	m := New(1 << 20)
	fillPages(t, m, 0, 4)
	if err := m.ZeroRange(0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedPages(); got != 0 {
		t.Fatalf("touched after scrub = %d, want 0", got)
	}
	m.Recycle(m.Parked())
	var w Window
	w.Reset(m)
	materialize := []func(ppn uint64){
		func(ppn uint64) { m.Load(ppn<<PageBits, 8) },
		func(ppn uint64) { m.Store(ppn<<PageBits+8, 1, 0) },
		func(ppn uint64) { m.WriteBytes(ppn<<PageBits+16, []byte{0}) },
		func(ppn uint64) { w.LoadFast(ppn<<PageBits, 8) },
	}
	for i, f := range materialize {
		f(uint64(i))      // a scrubbed page
		f(uint64(i) + 16) // a page never touched
	}
	if got := m.TouchedPages(); got != 2*len(materialize) {
		t.Fatalf("touched = %d, want %d", got, 2*len(materialize))
	}
	for i := range materialize {
		requireZeroPage(t, m, uint64(i))
		requireZeroPage(t, m, uint64(i)+16)
	}
}

// TestWindowNeverReadsRecycledPage caches a page in a Window, scrubs
// it, and hands its backing array to another page: the Window must
// read the scrubbed page as zero and its stores must not reach the
// page that reuses the array.
func TestWindowNeverReadsRecycledPage(t *testing.T) {
	m := New(1 << 20)
	var w Window
	w.Reset(m)
	const a, b = 0x3000, 0x9000
	if err := w.Store(a, 8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroPage(a); err != nil {
		t.Fatal(err)
	}
	m.Recycle(m.Parked())
	// Materializes b from the pool, normally with a's old array (the
	// race detector's pool drops some puts; the checks hold either way).
	if err := m.Store(b, 8, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.Load(a, 8); v != 0 {
		t.Fatalf("window read %#x from a scrubbed page, want 0", v)
	}
	if v := w.LoadFast(a, 8); v != 0 {
		t.Fatalf("window fast load read %#x from a scrubbed page, want 0", v)
	}
	w.StoreFast(a, 8, 7)
	if v, _ := m.Load(b, 8); v != 0xBEEF {
		t.Fatalf("page reusing the scrubbed array reads %#x, want 0xBEEF", v)
	}
	if v, _ := m.Load(a, 8); v != 7 {
		t.Fatalf("store through the window after the scrub lost: %#x", v)
	}
}

// TestRecycledPagesStayInTheirPhys checks the free pool is per
// memory: pages one Phys scrubs are never materialized by another.
func TestRecycledPagesStayInTheirPhys(t *testing.T) {
	m1, m2 := New(1<<20), New(1<<20)
	fillPages(t, m1, 0, 8)
	scrubbed := map[*[PageSize]byte]bool{}
	for ppn := uint64(0); ppn < 8; ppn++ {
		scrubbed[m1.pages[ppn].Load()] = true
	}
	if err := m1.ZeroRange(0, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	m1.Recycle(m1.Parked())
	fillPages(t, m2, 0, 8)
	for ppn := uint64(0); ppn < 8; ppn++ {
		if scrubbed[m2.pages[ppn].Load()] {
			t.Fatalf("page %d of one Phys reuses a page another Phys scrubbed", ppn)
		}
	}
}

// TestZeroPageStoreCycleAllocFree checks recycling makes the
// scrub-recycle-rewrite cycle of a page allocation-free.
func TestZeroPageStoreCycleAllocFree(t *testing.T) {
	m := New(1 << 20)
	cycle := func() {
		m.ZeroPage(0x5000)
		m.Recycle(m.Parked())
		m.Store(0x5008, 8, 1)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("ZeroPage+Recycle+Store allocates %.1f/op, want 0", got)
	}
}

// TestScrubbedPagesWaitForRecycle checks a dropped page stays out of
// circulation until Recycle is given a mark that covers it, and that
// Recycle clears what was written into it after the drop (a store that
// was still running through a stale Window).
func TestScrubbedPagesWaitForRecycle(t *testing.T) {
	m := New(1 << 20)
	const a, b, c = 0x1000, 0x2000, 0x3000
	fillPages(t, m, a>>PageBits, 1)
	fillPages(t, m, b>>PageBits, 1)
	pa, pb := m.pages[a>>PageBits].Load(), m.pages[b>>PageBits].Load()
	m.ZeroPage(a)
	mark := m.Parked()
	m.ZeroPage(b)
	pa[8] = 0xEE // lands after the drop, before any barrier
	for ppn := uint64(16); ppn < 32; ppn++ {
		if p := m.page(ppn); p == pa || p == pb {
			t.Fatalf("page %d materialized with a parked page before Recycle", ppn)
		}
	}
	m.Recycle(mark)
	if len(m.parked) != 1 || m.parked[0] != pb {
		t.Fatalf("Recycle(mark) left %d parked pages, want only the one dropped after the mark", len(m.parked))
	}
	if i := bytes.IndexFunc(pa[:], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("recycled page byte %d = %#x, want 0", i, pa[i])
	}
	m.Recycle(m.Parked())
	if len(m.parked) != 0 {
		t.Fatalf("%d pages still parked after recycling every mark", len(m.parked))
	}
	requireZeroPage(t, m, c>>PageBits)
}

// TestParkedPagesAreBounded checks scrubs with no Recycle between them
// keep at most maxParked pages, the rest going to the GC, and that
// TouchedPages still counts every drop.
func TestParkedPagesAreBounded(t *testing.T) {
	m := New((maxParked + 8) * PageSize)
	fillPages(t, m, 0, maxParked+8)
	if err := m.ZeroRange(0, (maxParked+8)*PageSize); err != nil {
		t.Fatal(err)
	}
	if len(m.parked) != maxParked {
		t.Fatalf("%d pages parked, want the bound %d", len(m.parked), maxParked)
	}
	if got := m.TouchedPages(); got != 0 {
		t.Fatalf("touched after scrub = %d, want 0", got)
	}
	if got := m.Parked(); got != maxParked {
		t.Fatalf("Parked() = %d, want %d", got, maxParked)
	}
}

// TestParallelScrubDisjointPages runs harts that each materialize,
// write, check, scrub and recycle their own pages while the others do
// the same, so recycled arrays move between harts; under -race this also checks
// the hand-off is synchronized. Every hart must only ever see its own
// values or zero.
func TestParallelScrubDisjointPages(t *testing.T) {
	const harts, pages, rounds = 4, 4, 200
	m := New(harts * pages * PageSize)
	var wg sync.WaitGroup
	for h := uint64(0); h < harts; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w Window
			w.Reset(m)
			base := h * pages * PageSize
			for r := uint64(0); r < rounds; r++ {
				val := h<<32 | r + 1
				for p := uint64(0); p < pages; p++ {
					if v := w.LoadFast(base+p*PageSize, 8); v != 0 {
						t.Errorf("hart %d round %d: scrubbed page reads %#x", h, r, v)
						return
					}
					w.StoreFast(base+p*PageSize, 8, val)
					if v, _ := m.Load(base+p*PageSize, 8); v != val {
						t.Errorf("hart %d round %d: page %d reads %#x, want %#x", h, r, p, v, val)
						return
					}
				}
				if err := m.ZeroRange(base, pages*PageSize); err != nil {
					t.Error(err)
					return
				}
				// Every hart touches only its own pages, so once its own
				// scrub returns, none of its accesses to them is running.
				m.Recycle(m.Parked())
			}
		}()
	}
	wg.Wait()
}
