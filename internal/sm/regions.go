package sm

import (
	"sync"

	"sanctorum/internal/sm/api"
)

// RegionState is the ABI-level region lifecycle state (paper Fig 2),
// aliased so monitor-internal code and callers share one definition.
type RegionState = api.RegionState

// Region states, re-exported for monitor-side code and tests.
const (
	RegionOwned     = api.RegionOwned
	RegionPending   = api.RegionPending
	RegionBlocked   = api.RegionBlocked
	RegionAvailable = api.RegionAvailable
)

// regionMeta is the monitor's metadata for one DRAM region. The mutex
// is the region's §V-A transaction lock: every transition TryLocks it
// and fails with ErrRetry under contention. Whichever transaction
// changes ownership also maintains the monitor's live osBitmap before
// releasing the lock, so the atomic bitmap is always consistent with
// the locked states.
type regionMeta struct {
	mu    sync.Mutex
	state RegionState
	owner uint64 // DomainOS, DomainSM, or eid
}

// regionInfo reports a region's state and owner (CallRegionInfo).
func (mon *Monitor) regionInfo(r int) (RegionState, uint64, api.Error) {
	if r < 0 || r >= len(mon.regions) {
		return 0, 0, api.ErrInvalidValue
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return 0, 0, api.ErrRetry
	}
	defer rm.mu.Unlock()
	return rm.state, rm.owner, api.OK
}

// grantRegion re-allocates an available region to a new owner, or — for
// a loading enclave or the SM — transfers it directly. Called by the
// untrusted OS (grant(resource, new_owner) in Fig 2, CallGrantRegion).
// Granting to the SM turns the region into a metadata region (§V-B:
// metadata must wholly reside in SM-owned memory).
func (mon *Monitor) grantRegion(r int, newOwner uint64) api.Error {
	if r < 0 || r >= len(mon.regions) {
		return api.ErrInvalidValue
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return api.ErrRetry
	}
	defer rm.mu.Unlock()

	// The OS may give away a region it owns, or re-allocate a cleaned
	// one; it may never touch regions in other states.
	switch rm.state {
	case RegionAvailable:
	case RegionOwned:
		if rm.owner != api.DomainOS {
			return api.ErrUnauthorized
		}
	default:
		return api.ErrInvalidState
	}

	switch newOwner {
	case api.DomainOS:
		rm.state, rm.owner = RegionOwned, api.DomainOS
		mon.setOSOwned(r, true)
	case api.DomainSM:
		rm.state, rm.owner = RegionOwned, api.DomainSM
		mon.setOSOwned(r, false)
		mon.objMu.Lock()
		mon.metaRgn[r] = true
		mon.objMu.Unlock()
	default:
		mon.objMu.RLock()
		e := mon.enclaves[newOwner]
		mon.objMu.RUnlock()
		if e == nil {
			return api.ErrInvalidValue
		}
		if !mon.tryLock(&e.mu, LockEnclave, newOwner) {
			return api.ErrRetry
		}
		defer e.mu.Unlock()
		switch e.State {
		case EnclaveLoading:
			// Grants during loading take effect immediately; they must
			// precede any page loads so the ascending-page invariant
			// can be established over the final region set.
			if e.pagesFrozen {
				return api.ErrInvalidState
			}
			rm.state, rm.owner = RegionOwned, newOwner
			e.Regions = e.Regions.Set(r)
		case EnclaveInitialized:
			// Running enclaves must accept offered resources (Fig 2).
			rm.state, rm.owner = RegionPending, newOwner
		default:
			return api.ErrInvalidState
		}
		mon.setOSOwned(r, false)
	}

	mon.refreshViews()
	return api.OK
}

// blockRegionAs relinquishes a region on behalf of its owner
// (block(resource) in Fig 2, CallBlockRegion): the OS from a host-side
// Request, an enclave from its trap context.
func (mon *Monitor) blockRegionAs(owner uint64, r int) api.Error {
	if r < 0 || r >= len(mon.regions) {
		return api.ErrInvalidValue
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return api.ErrRetry
	}
	defer rm.mu.Unlock()
	// Take every lock the transaction needs before mutating anything,
	// so a contention failure leaves no state half-changed.
	var e *Enclave
	if owner != api.DomainOS && owner != api.DomainSM {
		mon.objMu.RLock()
		e = mon.enclaves[owner]
		mon.objMu.RUnlock()
		if e != nil {
			if !mon.tryLock(&e.mu, LockEnclave, owner) {
				return api.ErrRetry
			}
			defer e.mu.Unlock()
		}
	}
	if rm.state != RegionOwned {
		return api.ErrInvalidState
	}
	if rm.owner != owner {
		return api.ErrUnauthorized
	}
	if e != nil && e.snap != nil {
		// A frozen template's regions hold pages clones alias; they
		// cannot leave the template until the snapshot is released.
		return api.ErrInvalidState
	}
	// Ownership reverts to the OS pool immediately: nothing reads the
	// old owner once the state is Blocked (clean_region resets it
	// anyway), and leaving it would let a region name an enclave that
	// has since been deleted.
	rm.state, rm.owner = RegionBlocked, api.DomainOS
	if owner == api.DomainOS {
		mon.setOSOwned(r, false)
	}
	if e != nil {
		e.Regions = e.Regions.Clear(r)
	}

	mon.refreshViews()
	return api.OK
}

// cleanRegion scrubs a blocked region and makes it available
// (clean(resource) by the OS in Fig 2, CallCleanRegion). The monitor
// shoots down TLB entries into the region on every core, then zeroes
// the region, recycles its pages and flushes its cache footprint,
// before the region can reach a new protection domain. The cross-core
// work travels as inter-processor mailbox requests that running harts
// acknowledge at instruction boundaries. OS (no-hart) context only.
func (mon *Monitor) cleanRegion(r int) api.Error {
	if r < 0 || r >= len(mon.regions) {
		return api.ErrInvalidValue
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return api.ErrRetry
	}
	defer rm.mu.Unlock()
	if rm.state != RegionBlocked {
		return api.ErrInvalidState
	}
	// Defense in depth for the snapshot subsystem: a region whose pages
	// still carry alias references (frozen snapshot pages with live
	// clones) must never be scrubbed — the block/delete guards already
	// prevent reaching here, but the refcount is the ground truth.
	layout := mon.machine.DRAM
	if mon.machine.Mem.RangeHasRefs(layout.Base(r), layout.RegionSize()) {
		return api.ErrInvalidState
	}
	// Shoot down before scrubbing. Each core acknowledges after the view
	// refresh the block posted ahead of it, so once every core has, no
	// hart holds a translation into r, and an OS hart on Sanctum cannot
	// walk a new one: nothing it writes through a stale mapping survives
	// the scrub into the next owner.
	mon.plat.ShootdownRegion(mon.machine, r)
	if err := mon.plat.CleanRegion(mon.machine, r); err != nil {
		return api.ErrInvalidValue
	}
	rm.state, rm.owner = RegionAvailable, api.DomainOS

	mon.refreshViews()
	return api.OK
}

// acceptRegion completes a pending grant (accept_resource by the
// enclave, Fig 2).
func (mon *Monitor) acceptRegion(e *Enclave, r int) api.Error {
	if r < 0 || r >= len(mon.regions) {
		return api.ErrInvalidValue
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return api.ErrRetry
	}
	defer rm.mu.Unlock()
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return api.ErrRetry
	}
	defer e.mu.Unlock()
	if rm.state != RegionPending || rm.owner != e.ID {
		return api.ErrInvalidState
	}
	rm.state = RegionOwned
	e.Regions = e.Regions.Set(r)

	mon.refreshViews()
	return api.OK
}
