package sm

import (
	"sort"
	"sync"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// EnclaveState is the ABI-level enclave lifecycle state (paper Fig 3),
// aliased so monitor-internal code and callers share one definition.
type EnclaveState = api.EnclaveState

// Enclave states, re-exported for monitor-side code and tests.
const (
	EnclaveLoading     = api.EnclaveLoading
	EnclaveInitialized = api.EnclaveInitialized
	EnclaveDead        = api.EnclaveDead
)

// Enclave is the monitor's metadata for one enclave. The enclave ID is
// the physical address of its metadata page inside an SM-owned metadata
// region (§V-C), which guarantees IDs are unforgeable names for
// SM-private state.
type Enclave struct {
	mu sync.Mutex

	ID     uint64
	State  EnclaveState
	EvBase uint64
	EvMask uint64

	// Regions is the set of DRAM regions this enclave owns.
	Regions dram.Bitmap

	// RootPPN is the enclave's private page-table root, the first page
	// of its physical address space (§VI-A).
	RootPPN uint64

	// Page allocation for loading: the enclave's physical pages sorted
	// ascending; loadCursor is the next page to consume, which enforces
	// the paper's monotonically-increasing physical load order.
	pages       []uint64
	loadCursor  int
	pagesFrozen bool // set at first allocation; no further region grants
	dataStarted bool // set at first data page; no further table pages

	// ptPages maps (level, index-path prefix) to the PPN of an
	// allocated page-table page, so the monitor can validate top-down
	// construction without re-walking memory.
	ptPages map[ptKey]uint64

	// mapped tracks loaded VAs to enforce the injective, no-alias
	// virtual→physical mapping the measurement relies on.
	mapped map[uint64]bool

	meas        *Measurement
	Measurement [32]byte // valid once initialized

	Threads   map[uint64]*Thread
	running   int // threads currently on cores
	Mailboxes [api.MailboxesPerEnclave]Mailbox

	// Snapshot/clone state (DESIGN.md §8). snap is non-nil while a live
	// snapshot freezes this enclave's pages (the template side);
	// CloneOf names the snapshot this enclave was forked from (the
	// clone side, 0 for a directly built enclave). Borrowed is the set
	// of template regions a clone's aliased pages live in: part of the
	// enclave's access view but never of its owned-region accounting —
	// deleting the clone must not block the template's regions.
	snap     *Snapshot
	CloneOf  uint64
	Borrowed dram.Bitmap

	// cow maps each virtual page still aliasing a frozen snapshot page
	// copy-on-write (the PTE's W bit is cleared) to that frozen page; a
	// store fault on one of these is resolved by the monitor's
	// copy-then-retry protocol. Populated on the template when the
	// snapshot freezes its writable pages, and on every clone. roAliases
	// lists the frozen pages a clone aliases read-only (never copied,
	// released at clone deletion).
	cow       map[uint64]snapPage
	roAliases []uint64
}

type ptKey struct {
	level  int
	prefix uint64 // va >> (PageBits + 9*(level+1))
}

// createEnclave starts the lifecycle (Fig 3: create_enclave by the OS,
// CallCreateEnclave). eid must be a free page inside an SM metadata
// region; evBase/evMask define the enclave virtual range.
func (mon *Monitor) createEnclave(eid, evBase, evMask uint64) api.Error {
	if !validEvrange(evBase, evMask) {
		return api.ErrInvalidValue
	}
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if _, exists := mon.enclaves[eid]; exists {
		return api.ErrInvalidValue
	}
	if st := mon.allocMetaPage(eid); st != api.OK {
		return st
	}
	e := &Enclave{
		ID:      eid,
		State:   EnclaveLoading,
		EvBase:  evBase,
		EvMask:  evMask,
		ptPages: make(map[ptKey]uint64),
		mapped:  make(map[uint64]bool),
		meas:    NewMeasurement(),
		Threads: make(map[uint64]*Thread),
	}
	e.meas.ExtendCreate(evBase, evMask)
	mon.enclaves[eid] = e
	// Mirror the lifecycle state into the metadata page so SM-owned
	// memory actually holds it (and tests can assert the OS cannot
	// read it).
	mon.machine.Mem.Store(eid, 8, uint64(e.State))
	return api.OK
}

// validEvrange requires a left-contiguous mask covering at least one
// page and a base aligned to the mask.
func validEvrange(base, mask uint64) bool {
	if mask == 0 {
		return false
	}
	low := ^mask
	if low&(low+1) != 0 { // low bits must be 2^k - 1
		return false
	}
	if low < mem.PageMask {
		return false
	}
	return base&low == 0
}

// InEvrange reports whether va falls within the enclave virtual range.
func (e *Enclave) InEvrange(va uint64) bool {
	return va&e.EvMask == e.EvBase
}

// accessRegions returns the DRAM regions this enclave's accesses may
// reach: the regions it owns plus any borrowed from a snapshot
// template (a clone reads its aliased pages there). Ownership
// accounting — deletion, blocking — uses Regions alone.
func (e *Enclave) accessRegions() dram.Bitmap { return e.Regions | e.Borrowed }

// lookupEnclave fetches and transaction-locks an enclave; contention on
// the enclave's lock fails the transaction with ErrRetry (§V-A). The
// dead re-check closes the lookup/free race: a hart that fetched the
// pointer before a concurrent delete removed it must not operate on
// the orphaned object — a ring could attach to a deleted enclave and
// survive into a recreated one under the same eid.
func (mon *Monitor) lookupEnclave(eid uint64) (*Enclave, api.Error) {
	mon.objMu.RLock()
	e := mon.enclaves[eid]
	mon.objMu.RUnlock()
	if e == nil {
		return nil, api.ErrInvalidValue
	}
	if !mon.tryLock(&e.mu, LockEnclave, eid) {
		return nil, api.ErrRetry
	}
	if e.State == EnclaveDead {
		e.mu.Unlock()
		return nil, api.ErrInvalidValue
	}
	return e, api.OK
}

// freezePagesLocked fixes the enclave's physical page list from its
// owned regions. After this point region grants to the loading enclave
// are refused, so the ascending-allocation invariant is meaningful.
func (mon *Monitor) freezePagesLocked(e *Enclave) {
	if e.pagesFrozen {
		return
	}
	e.pagesFrozen = true
	layout := mon.machine.DRAM
	regions := e.Regions.Regions()
	sort.Ints(regions)
	for _, r := range regions {
		base := layout.Base(r) >> mem.PageBits
		for p := uint64(0); p < layout.PagesPerRegion(); p++ {
			e.pages = append(e.pages, base+p)
		}
	}
}

// nextPageLocked consumes the next physical page in ascending order.
func (e *Enclave) nextPageLocked() (uint64, bool) {
	if e.loadCursor >= len(e.pages) {
		return 0, false
	}
	p := e.pages[e.loadCursor]
	e.loadCursor++
	return p, true
}

// allocatePageTableLocked allocates the enclave page-table page that
// holds the PTEs for va at the given level (2 = root, 0 = leaf table),
// in the enclave's own memory (Fig 3: allocate_page_table by the OS,
// CallAllocPageTable). Tables must be allocated top-down and before any
// data page, which places them at the base of the enclave's physical
// space as §VI-A requires. The caller holds e's transaction lock.
func (mon *Monitor) allocatePageTableLocked(e *Enclave, va uint64, level int) api.Error {
	if e.State != EnclaveLoading {
		return api.ErrInvalidState
	}
	if e.dataStarted {
		return api.ErrInvalidState
	}
	if level < 0 || level >= pt.Levels {
		return api.ErrInvalidValue
	}
	// Tables may also serve VAs outside evrange: Keystone enclaves map
	// an OS-provided shared window through their own tables (§VII-B).
	mon.freezePagesLocked(e)

	key := ptKey{level: level, prefix: vaPrefix(va, level)}
	if _, dup := e.ptPages[key]; dup {
		return api.ErrInvalidValue
	}

	// The parent table must already exist (top-down construction).
	var parentPPN uint64
	if level == pt.Levels-1 {
		if e.RootPPN != 0 {
			return api.ErrInvalidValue // root already allocated
		}
	} else {
		parent, ok := e.ptPages[ptKey{level: level + 1, prefix: vaPrefix(va, level+1)}]
		if !ok {
			return api.ErrInvalidState
		}
		parentPPN = parent
	}

	ppn, ok := e.nextPageLocked()
	if !ok {
		return api.ErrNoResources
	}
	mon.machine.Mem.ZeroPage(ppn << mem.PageBits)
	e.ptPages[key] = ppn
	if level == pt.Levels-1 {
		e.RootPPN = ppn
	} else {
		pteAddr := parentPPN<<mem.PageBits + pt.VPN(va, level+1)*pt.EntrySize
		mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, pt.V))
	}
	// Measure the table's normalized VA prefix, not raw caller bits.
	e.meas.ExtendPageTable(vaPrefix(va, level)<<(mem.PageBits+9*uint(level+1)), level)
	return api.OK
}

func vaPrefix(va uint64, level int) uint64 {
	return (va & pt.VAMask) >> (mem.PageBits + 9*uint(level+1))
}

// NormalizeTableVA returns the virtual-address prefix the monitor
// measures for a page-table allocation at the given level. Verifiers
// replaying a measurement transcript (internal/os, internal/attest)
// must use the same normalization.
func NormalizeTableVA(va uint64, level int) uint64 {
	return vaPrefix(va, level) << (mem.PageBits + 9*uint(level+1))
}

// loadPageLocked copies one page of initial contents from untrusted OS
// memory into the enclave's next physical page and maps it at va
// (Fig 3: load_page by the OS, CallLoadPage). perms is a combination of
// pt.R/pt.W/pt.X. The caller holds e's transaction lock.
func (mon *Monitor) loadPageLocked(e *Enclave, va, srcPA, perms uint64) api.Error {
	if e.State != EnclaveLoading {
		return api.ErrInvalidState
	}
	if va&mem.PageMask != 0 || !e.InEvrange(va) {
		return api.ErrInvalidValue
	}
	if perms&^uint64(pt.R|pt.W|pt.X) != 0 || perms == 0 {
		return api.ErrInvalidValue
	}
	if e.mapped[va] {
		return api.ErrInvalidValue // aliasing is forbidden (§VI-A)
	}
	// The source must be OS-owned untrusted memory.
	if !mon.osOwnsRange(srcPA, mem.PageSize) {
		return api.ErrInvalidValue
	}
	leaf, ok := e.ptPages[ptKey{level: 0, prefix: vaPrefix(va, 0)}]
	if !ok {
		return api.ErrInvalidState // leaf table missing
	}
	ppn, okPage := e.nextPageLocked()
	if !okPage {
		return api.ErrNoResources
	}

	var content [mem.PageSize]byte
	if err := mon.machine.Mem.ReadBytes(srcPA, content[:]); err != nil {
		return api.ErrInvalidValue
	}
	if err := mon.machine.Mem.WriteBytes(ppn<<mem.PageBits, content[:]); err != nil {
		return api.ErrInvalidValue
	}
	pteAddr := leaf<<mem.PageBits + pt.VPN(va, 0)*pt.EntrySize
	mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, perms|pt.V|pt.U))

	e.mapped[va] = true
	e.dataStarted = true
	e.meas.ExtendPage(va, perms, content[:])
	return api.OK
}

// mapSharedLocked maps an OS-owned physical page into the enclave's
// page tables at a virtual address outside evrange: the Keystone-style
// untrusted shared buffer (§VII-B, CallMapShared). The mapping's
// address is measured (it is configuration) but its contents are not
// (they are untrusted by definition and the OS can change them at any
// time). The caller holds e's transaction lock.
func (mon *Monitor) mapSharedLocked(e *Enclave, va, pa uint64) api.Error {
	if e.State != EnclaveLoading {
		return api.ErrInvalidState
	}
	if va&mem.PageMask != 0 || pa&mem.PageMask != 0 {
		return api.ErrInvalidValue
	}
	if e.InEvrange(va) {
		return api.ErrInvalidValue // the private range must hold only private pages
	}
	if e.mapped[va] {
		return api.ErrInvalidValue
	}
	if !mon.osOwnsRange(pa, mem.PageSize) {
		return api.ErrInvalidValue
	}
	leaf, ok := e.ptPages[ptKey{level: 0, prefix: vaPrefix(va, 0)}]
	if !ok {
		return api.ErrInvalidState
	}
	pteAddr := leaf<<mem.PageBits + pt.VPN(va, 0)*pt.EntrySize
	mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(pa>>mem.PageBits, pt.R|pt.W|pt.V|pt.U))
	e.mapped[va] = true
	e.meas.ExtendShared(va)
	return api.OK
}

// osOwnsRange reports whether [pa, pa+n) lies wholly in OS-owned
// regions, against the live atomic bitmap (no locks taken).
func (mon *Monitor) osOwnsRange(pa, n uint64) bool {
	return mon.osRegions().ContainsRange(mon.machine.DRAM, pa, n)
}

// initEnclaveLocked seals the enclave (Fig 3: init_enclave by the OS,
// CallInitEnclave): the measurement is finalized and threads become
// schedulable. The caller holds e's transaction lock.
func (mon *Monitor) initEnclaveLocked(e *Enclave) api.Error {
	if e.State != EnclaveLoading {
		return api.ErrInvalidState
	}
	if e.RootPPN == 0 {
		return api.ErrInvalidState // an enclave without page tables cannot run
	}
	e.Measurement = e.meas.Finalize()
	e.State = EnclaveInitialized
	mon.machine.Mem.Store(e.ID, 8, uint64(e.State))
	mon.machine.Mem.WriteBytes(e.ID+8, e.Measurement[:])
	return api.OK
}

// enclaveStatusLocked reports the enclave lifecycle state and, when
// measOutPA is non-zero, writes the 32-byte measurement to that
// OS-owned physical address (CallEnclaveStatus). The caller holds e's
// transaction lock.
func (mon *Monitor) enclaveStatusLocked(e *Enclave, measOutPA uint64) (uint64, api.Error) {
	if measOutPA != 0 && !mon.copyOut(nil, measOutPA, e.Measurement[:]) {
		return 0, api.ErrInvalidValue
	}
	return uint64(e.State), api.OK
}

// deleteEnclave tears an enclave down (Fig 3: delete_enclave by the
// OS, CallDeleteEnclave): refused while any thread is scheduled; all
// owned regions become blocked and must be cleaned before
// re-allocation; threads revert to the available pool.
//
// Snapshot interactions: a template with a live snapshot cannot be
// deleted (its frozen pages back outstanding clones — the snapshot
// must be released first, which in turn requires zero clones), so page
// reclamation is deferred behind the refcounted alias graph rather
// than risked. Deleting a clone releases its alias references and
// decrements the snapshot's clone count; the clone's own regions (page
// tables, COW copies) block and clean normally.
//
// The transaction acquires every lock it will need — the enclave, the
// snapshot it clones (if any), all of its threads, and every region it
// owns or has pending — with TryLock before mutating anything, so
// under contention it fails with ErrRetry having changed no state
// (§V-A).
func (mon *Monitor) deleteEnclave(eid uint64) api.Error {
	e, st := mon.lookupEnclave(eid)
	if st != api.OK {
		return st
	}
	defer e.mu.Unlock()
	if e.running > 0 {
		return api.ErrInvalidState
	}
	if e.snap != nil {
		return api.ErrInvalidState // live snapshot: release it first
	}
	// A live ring or grant endpoint blocks deletion, like a live
	// snapshot: a freed eid could otherwise be recreated and inherit
	// the dead enclave's rings — including undelivered messages meant
	// for the previous tenant — and a revoke relies on its endpoints
	// existing. The OS destroys the rings and revokes the grants first.
	// Endpoint identities are immutable after creation, and createPair
	// registers only while holding the endpoint enclave's lock (held
	// here for the whole transaction), so the scan cannot race a new
	// attachment.
	endpoint := false
	mon.objMu.RLock()
	for _, r := range mon.rings {
		endpoint = endpoint || r.isEndpoint(eid)
	}
	for _, g := range mon.grants {
		endpoint = endpoint || g.isEndpoint(eid)
	}
	mon.objMu.RUnlock()
	if endpoint {
		return api.ErrInvalidState
	}
	var snap *Snapshot
	if e.CloneOf != 0 {
		mon.objMu.RLock()
		snap = mon.snapshots[e.CloneOf]
		mon.objMu.RUnlock()
		if snap != nil {
			if !mon.tryLock(&snap.mu, LockSnapshot, e.CloneOf) {
				return api.ErrRetry
			}
			defer snap.mu.Unlock()
		}
	}
	var lockedThreads []*Thread
	var lockedRegions []int
	unlockAll := func() {
		for _, th := range lockedThreads {
			th.mu.Unlock()
		}
		for _, r := range lockedRegions {
			mon.regions[r].mu.Unlock()
		}
	}
	for _, th := range e.Threads {
		if !mon.tryLock(&th.mu, LockThread, th.ID) {
			unlockAll()
			return api.ErrRetry
		}
		lockedThreads = append(lockedThreads, th)
	}
	// Threads offered to this enclave are not yet in e.Threads, but
	// their Owner field names it; leaving that dangling would let a new
	// enclave recreated under the freed eid accept_thread a thread the
	// dead tenant was offered. Scan the global table — membership is
	// checked under each thread's own lock (Owner is thread state), and
	// holding e.mu excludes new offers racing the scan.
	mon.objMu.RLock()
	others := make([]*Thread, 0, len(mon.threads))
	for tid, th := range mon.threads {
		if _, mine := e.Threads[tid]; !mine {
			others = append(others, th)
		}
	}
	mon.objMu.RUnlock()
	var offered []*Thread
	for _, th := range others {
		if !mon.tryLock(&th.mu, LockThread, th.ID) {
			unlockAll()
			return api.ErrRetry
		}
		if th.State == ThreadOffered && th.Owner == eid {
			offered = append(offered, th)
			lockedThreads = append(lockedThreads, th)
		} else {
			th.mu.Unlock()
		}
	}
	// Every region lock, owned or pending, before the first mutation. A
	// contended region — even one that turns out not to involve this
	// enclave — fails the delete; conservative, and the caller retries.
	for r := range mon.regions {
		rm := &mon.regions[r]
		if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
			unlockAll()
			return api.ErrRetry
		}
		if e.Regions.Has(r) || (rm.state == RegionPending && rm.owner == eid) {
			lockedRegions = append(lockedRegions, r)
		} else {
			rm.mu.Unlock()
		}
	}
	// All locks held; mutate — only regions whose locks we kept (the
	// others may be mid-transaction on another hart, and holding e.mu
	// guarantees no new grant can attach this enclave to them). Owned
	// regions hold enclave secrets until cleaned; pending grants revert
	// to the OS.
	for _, r := range lockedRegions {
		rm := &mon.regions[r]
		if e.Regions.Has(r) {
			// Ownership reverts to the OS pool at block time (the owner
			// field has no meaning once the bitmap link is severed, and a
			// blocked region must never name a dead enclave); the secrets
			// stay sealed until clean_region scrubs the region.
			rm.state, rm.owner = RegionBlocked, api.DomainOS
		} else if rm.state == RegionPending && rm.owner == eid {
			rm.state, rm.owner = RegionOwned, api.DomainOS
			mon.setOSOwned(r, true)
		}
	}

	// A clone's alias references die with it: one per page still
	// aliased copy-on-write, one per read-only alias, and the
	// snapshot's clone count. The frozen pages themselves live in the
	// template's regions and are untouched.
	if snap != nil {
		for _, pg := range e.cow {
			mon.machine.Mem.ReleaseRef(pg.ppn << mem.PageBits)
		}
		for _, ppn := range e.roAliases {
			mon.machine.Mem.ReleaseRef(ppn << mem.PageBits)
		}
		e.cow, e.roAliases = nil, nil
		snap.clones--
	}

	mon.objMu.Lock()
	for tid, th := range e.Threads {
		th.State = ThreadAvailable
		th.Owner = 0
		th.clearContext()
		delete(e.Threads, tid)
	}
	for _, th := range offered {
		th.State = ThreadAvailable
		th.Owner = 0
		th.clearContext()
	}
	delete(mon.enclaves, eid)
	mon.freeMetaPage(eid)
	mon.objMu.Unlock()
	unlockAll()
	mon.refreshViews()

	e.State = EnclaveDead
	return api.OK
}
