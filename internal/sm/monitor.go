// Package sm implements Sanctorum, the security monitor of the paper:
// a small, trusted, machine-mode component that verifies the untrusted
// OS's resource-management decisions against a security state machine
// and performs the privileged state changes itself. The monitor is not
// a kernel — it makes no allocation decisions — it only refuses unsafe
// ones (paper §V).
//
// The monitor registers itself as the simulated machine's firmware, so
// every trap and interrupt on any core reaches it before any untrusted
// software, exactly as in the paper's Fig 1. All untrusted software
// speaks one call ABI (internal/sm/api): enclaves reach it through the
// ECALL instruction and the trap path (trap.go); the untrusted OS —
// host Go code standing in for S-mode — submits the same api.Request
// values through Monitor.Dispatch or DispatchBatch, normally via the
// smcall client. Both entries land in the single routing table in
// dispatch.go, where the per-caller-domain authorization lives.
//
// # Concurrency model (paper §V-A)
//
// The monitor is built for many harts calling it at once. There is no
// global monitor lock; instead:
//
//   - Every object — enclave, thread, DRAM region, core slot — carries
//     its own transaction lock, acquired with TryLock. A call that
//     cannot take a lock fails with api.ErrRetry ("the SM fails
//     transactions in case of a concurrent operation") without having
//     changed any state; callers retry.
//   - The object maps and the metadata-page set sit behind objMu, a
//     reader/writer lock held only for map operations, never while
//     waiting for another hart.
//   - The OS-owned region set is a single atomic bitmap (osBitmap),
//     updated by whichever transaction moves a region and read without
//     locks by the DMA policy and ownership checks.
//   - Cross-core state (TLB shootdowns, per-core view refreshes) moves
//     through the machine's inter-processor mailboxes: the monitor
//     posts IPIs that target harts acknowledge at instruction
//     boundaries; requests to idle harts execute synchronously on the
//     poster. Blocking lock acquisitions (stopThread's AEX save) never
//     nest and never wait on IPI acknowledgments, which keeps the
//     monitor deadlock-free; see DESIGN.md §5 for the full discipline.
package sm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

// Platform abstracts the isolation backend (§VII): the monitor's logic
// is identical for Sanctum and Keystone; only how a protection domain's
// memory is made exclusive differs.
type Platform interface {
	// Kind identifies the backend.
	Kind() machine.IsolationKind
	// ApplyOSView programs a core for untrusted OS/process execution:
	// no enclave state, OS-owned regions accessible. Called with the
	// target core quiescent (boot, or the core's own trap context).
	ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error
	// ApplyEnclaveView programs a core to run an enclave thread. Called
	// with the target core quiescent.
	ApplyEnclaveView(c *machine.Core, view EnclaveView) error
	// RefreshOSRegions updates the OS-accessible region set on a core
	// without otherwise disturbing it (used on region re-allocation).
	// The monitor delivers it via the core's IPI mailbox.
	RefreshOSRegions(c *machine.Core, osRegions dram.Bitmap) error
	// CleanRegion scrubs a DRAM region: zeroes its memory and flushes
	// its cache footprint everywhere. Per-core cache flushes are
	// delivered as IPIs. Called from OS (no-hart) context only.
	CleanRegion(m *machine.Machine, r int) error
	// ShootdownRegion invalidates all TLB translations into region r on
	// every core (the paper's page-walk invariant maintenance), as IPIs
	// the cores acknowledge at instruction boundaries. Called from OS
	// (no-hart) context only; returns once every core has acknowledged.
	ShootdownRegion(m *machine.Machine, r int)
}

// EnclaveView is the per-core state describing a running enclave.
type EnclaveView struct {
	RootPPN   uint64      // enclave private page-table root
	EvBase    uint64      // enclave virtual range base
	EvMask    uint64      // enclave virtual range mask
	Regions   dram.Bitmap // enclave-owned DRAM regions
	OSRegions dram.Bitmap // regions the OS currently owns (shared access)
}

// Config configures the monitor at boot.
type Config struct {
	Machine  *machine.Machine
	Platform Platform
	Identity *boot.Identity
	// SMRegions are the DRAM regions holding the monitor image and its
	// static state; they belong to the SM domain from boot onward.
	SMRegions []int
	// SigningEnclave is the expected measurement of the signing enclave
	// (§VI-C), hard-coded into the monitor at build/boot time.
	SigningEnclave [32]byte
}

// Monitor is the security monitor instance for one machine.
type Monitor struct {
	machine *machine.Machine
	plat    Platform
	id      *boot.Identity

	signingMeasurement [32]byte

	// tele holds the cached telemetry instruments (telemetry.go); nil
	// until the untrusted facade calls SetTelemetry, so an unwired
	// monitor pays one nil check per dispatch.
	tele *monTelemetry

	// objMu guards the object maps and the metadata bookkeeping; it is
	// held only across map reads/writes. The objects themselves carry
	// their own transaction locks (per-enclave, per-thread, per-region,
	// per-core-slot), taken with TryLock so transactions fail with
	// ErrRetry instead of blocking (§V-A).
	objMu     sync.RWMutex
	metaRgn   map[int]bool    // SM regions usable for metadata
	metaPages map[uint64]bool // allocated metadata pages, by phys addr
	enclaves  map[uint64]*Enclave
	threads   map[uint64]*Thread
	snapshots map[uint64]*Snapshot
	rings     map[uint64]*Ring
	grants    map[uint64]*Grant
	pairSeq   uint64 // ring and grant creation order (under objMu)

	regions []regionMeta
	cores   []coreSlot

	// wakeSink is the OS's park/wake notification handler (SetWakeSink);
	// wakes travel to it through the IPI mailboxes (ring.go).
	wakeSink atomic.Value

	// osBitmap is the live set of OS-owned regions (state==Owned &&
	// owner==DomainOS), maintained atomically by region transactions so
	// the DMA filter and ownership checks read it without locking.
	osBitmap atomic.Uint64

	// lockHook is the optional transaction-lock fault hook (fault.go),
	// consulted by tryLock before every TryLock acquisition.
	lockHook lockHookPtr
}

// lockFault consults the fault hook (fault.go) for one acquisition;
// true means the acquisition must fail spuriously.
func (mon *Monitor) lockFault(kind LockKind, id uint64) bool {
	h := mon.lockHook.Load()
	return h != nil && (*h)(LockPoint{Kind: kind, ID: id})
}

// tryLock is the transaction layer's single TryLock choke point: every
// §V-A transaction-lock acquisition routes through it so the fault
// hook can observe or refuse any acquisition. The fast path with no
// hook installed is one atomic nil check.
func (mon *Monitor) tryLock(mu *sync.Mutex, kind LockKind, id uint64) bool {
	if mon.lockFault(kind, id) {
		return false
	}
	return mu.TryLock()
}

// coreSlot tracks which protection domain a core currently executes.
// Its lock is the per-core transaction lock of §V-A: enter/exit
// transactions and trap dispatch take it briefly; it is never held
// while waiting on another hart.
type coreSlot struct {
	mu    sync.Mutex
	owner uint64 // api.DomainOS or an eid
	tid   uint64 // running thread when owner is an enclave
}

// New boots the monitor on a machine: claims the SM's own regions,
// assigns every other region to the untrusted OS, installs the DMA
// policy and the OS view on every core, and registers the monitor as
// the machine's firmware.
func New(cfg Config) (*Monitor, error) {
	if cfg.Machine == nil || cfg.Platform == nil || cfg.Identity == nil {
		return nil, fmt.Errorf("sm: incomplete configuration")
	}
	if cfg.Platform.Kind() != cfg.Machine.Kind {
		return nil, fmt.Errorf("sm: platform kind %v does not match machine %v",
			cfg.Platform.Kind(), cfg.Machine.Kind)
	}
	mon := &Monitor{
		machine:            cfg.Machine,
		plat:               cfg.Platform,
		id:                 cfg.Identity,
		signingMeasurement: cfg.SigningEnclave,
		regions:            make([]regionMeta, cfg.Machine.DRAM.RegionCount),
		metaRgn:            make(map[int]bool),
		metaPages:          make(map[uint64]bool),
		enclaves:           make(map[uint64]*Enclave),
		threads:            make(map[uint64]*Thread),
		snapshots:          make(map[uint64]*Snapshot),
		rings:              make(map[uint64]*Ring),
		grants:             make(map[uint64]*Grant),
		cores:              make([]coreSlot, len(cfg.Machine.Cores)),
	}
	for i := range mon.regions {
		mon.regions[i] = regionMeta{state: RegionOwned, owner: api.DomainOS}
	}
	for _, r := range cfg.SMRegions {
		if r < 0 || r >= len(mon.regions) {
			return nil, fmt.Errorf("sm: SM region %d out of range", r)
		}
		mon.regions[r] = regionMeta{state: RegionOwned, owner: api.DomainSM}
	}
	for i := range mon.cores {
		mon.cores[i].owner = api.DomainOS
	}
	var osBitmap dram.Bitmap
	for r := range mon.regions {
		if mon.regions[r].owner == api.DomainOS {
			osBitmap = osBitmap.Set(r)
		}
	}
	mon.osBitmap.Store(uint64(osBitmap))
	for _, c := range cfg.Machine.Cores {
		if err := cfg.Platform.ApplyOSView(c, osBitmap); err != nil {
			return nil, fmt.Errorf("sm: programming core %d: %w", c.ID, err)
		}
	}
	// The DMA filter (§IV-B1) is installed exactly once and reads the
	// live bitmap, so region transitions need not republish it and
	// concurrent DMA checks are race-free.
	layout := cfg.Machine.DRAM
	cfg.Machine.DMAAllowed = func(pa, n uint64) bool {
		return dram.Bitmap(mon.osBitmap.Load()).ContainsRange(layout, pa, n)
	}
	cfg.Machine.Firmware = mon
	return mon, nil
}

// Identity returns the monitor's boot identity (public parts are also
// available through GetField).
func (mon *Monitor) Identity() *boot.Identity { return mon.id }

// osRegions returns the live bitmap of OS-owned regions.
func (mon *Monitor) osRegions() dram.Bitmap {
	return dram.Bitmap(mon.osBitmap.Load())
}

// setOSOwned adds or removes region r from the live OS-owned bitmap.
// Called by region transactions while holding the region's lock.
func (mon *Monitor) setOSOwned(r int, owned bool) {
	if owned {
		mon.osBitmap.Or(1 << uint(r))
	} else {
		mon.osBitmap.And(^uint64(1 << uint(r)))
	}
}

// refreshViews pushes the current OS region set to every core through
// its IPI mailbox: running harts pick the update up at their next
// instruction boundary, idle harts are programmed synchronously on the
// calling goroutine, and a hart refreshing itself from a trap handler
// applies it at the boundary right after the trap returns. Called after
// any region transition; the DMA policy needs no republish (it reads
// the live bitmap).
//
// The bitmap is read inside the posted request — at apply time, on the
// target hart — not snapshotted at post time: two region transactions
// on different regions can post concurrently, and FIFO mailbox order
// need not match their bitmap-update order, so a post-time snapshot
// could finish with a stale view installed. Reading live means the
// last applied request always reflects every update that preceded it.
func (mon *Monitor) refreshViews() {
	for id := range mon.machine.Cores {
		slot := &mon.cores[id]
		mon.machine.PostIPI(id, func(c *machine.Core) {
			osBitmap := mon.osRegions()
			slot.mu.Lock()
			osOwned := slot.owner == api.DomainOS
			slot.mu.Unlock()
			if osOwned {
				mon.plat.RefreshOSRegions(c, osBitmap)
			} else {
				// Enclave cores keep their enclave view but see the
				// updated OS set for shared accesses.
				c.OSRegions = osBitmap
			}
		})
	}
}

// inMetaRegion returns whether pa lies inside an SM metadata region.
// Caller holds objMu.
func (mon *Monitor) inMetaRegion(pa uint64) bool {
	r := mon.machine.DRAM.RegionOf(pa)
	return r >= 0 && mon.metaRgn[r]
}

// allocMetaPage claims the metadata page at pa (page-aligned, inside a
// metadata region, unused). Caller holds objMu for writing.
func (mon *Monitor) allocMetaPage(pa uint64) api.Error {
	if pa&mem.PageMask != 0 || !mon.inMetaRegion(pa) {
		return api.ErrInvalidValue
	}
	if mon.metaPages[pa] {
		return api.ErrInvalidValue
	}
	mon.metaPages[pa] = true
	return api.OK
}

func (mon *Monitor) freeMetaPage(pa uint64) {
	delete(mon.metaPages, pa)
	mon.machine.Mem.ZeroPage(pa)
}
