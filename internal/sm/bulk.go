package sm

// Bulk grants (DESIGN.md §14): the zero-copy data plane. A grant pins
// a span of OS-owned pages as an untrusted shared buffer between a
// fixed producer/consumer pair — the region-ownership machinery of §IV
// narrowed to page granularity, with the physical page refcounts as
// ground truth: a granted page carries an alias reference, so
// clean_region refuses to scrub it for as long as the grant lives.
// Ring messages then carry scatter-gather descriptors — (offset,
// length) lists validated against the grant bounds at send time — so
// multi-KB payloads move through the buffer with zero monitor copies
// on the data path; the monitor only ever copies the 64-byte
// descriptor message itself.
//
// Lifecycle (the state machine of DESIGN.md §14): bulk_grant registers
// the buffer and pins its pages; each endpoint enclave accepts with
// bulk_map, which writes the PTEs into its own tables (outside the
// evrange, like a Keystone shared window — the OS maps its side in its
// own untrusted page tables, no monitor call needed); bulk_revoke
// unmaps every endpoint with targeted shootdowns, drops the pins, and
// frees the id — refused with ErrInvalidState while any descriptor
// into the grant is still queued in a ring, because in-flight data
// keeps the buffer alive.
//
// Concurrency: the grant's mutex is its §V-A transaction lock, taken
// with TryLock by map and revoke. The send/recv hot paths never take
// it — they use the dead/inflight atomics, ordered so the two cannot
// both win: send publishes inflight before checking dead, revoke
// publishes dead before checking inflight (both sequentially
// consistent), so either the send sees the revoke and backs out with
// ErrRetry, or the revoke sees the send's descriptors and refuses.
// This keeps grant locks out of the ring lock order entirely: a
// ring-transaction holder never waits on a grant.
//
// bulk_send and bulk_recv are ring_send and ring_recv with a grant:
// hRingSend and hRingRecv (ring.go) run the grant prelude below
// (admit, settle, the endpoint check and the grant's head run) around
// the one ring path.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// Grant is the monitor's metadata for one bulk buffer grant, named —
// like every monitor object — by a free SM metadata page.
type Grant struct {
	mu sync.Mutex
	endpointPair
	BasePA uint64
	Pages  uint64

	// maps records where each enclave endpoint bulk_mapped the buffer
	// (eid → va), guarded by mu. The OS side never appears here: the
	// buffer is OS-owned memory the OS reaches through its own tables.
	maps map[uint64]uint64

	// dead and inflight are the revoke/send race protocol (see the
	// package comment above): send never takes mu, so a ring-lock
	// holder never waits on a grant transaction.
	dead     atomic.Bool
	inflight atomic.Int64 // descriptors queued in rings
}

// bytes returns the grant's size in bytes.
func (g *Grant) bytes() uint64 { return g.Pages * mem.PageSize }

// lookupGrant fetches and transaction-locks a grant; contention fails
// the transaction with ErrRetry (§V-A). The dead re-check closes the
// lookup/revoke race exactly as lookupRing does for rings.
func (mon *Monitor) lookupGrant(id uint64) (*Grant, api.Error) {
	mon.objMu.RLock()
	g := mon.grants[id]
	mon.objMu.RUnlock()
	if g == nil {
		return nil, api.ErrInvalidValue
	}
	if !mon.tryLock(&g.mu, LockGrant, id) {
		return nil, api.ErrRetry
	}
	if g.dead.Load() {
		g.mu.Unlock()
		return nil, api.ErrInvalidValue
	}
	return g, api.OK
}

// peekGrant fetches a grant without locking it, for the send/recv hot
// paths, which synchronize through the dead/inflight atomics instead.
// A pointer to a grant revoked after the fetch is harmless: its dead
// flag is set, so the send protocol aborts.
func (mon *Monitor) peekGrant(id uint64) *Grant {
	mon.objMu.RLock()
	g := mon.grants[id]
	mon.objMu.RUnlock()
	return g
}

// bulkGrant implements CallBulkGrant (OS-domain): register a grant over
// [basePA, basePA+pages·4096) in OS-owned memory between a fixed
// producer and consumer, pinning every page with an alias reference.
// The grant registers through createPair, the same endpoint exclusion
// rings use, so a grant can never attach to an enclave mid-deletion and
// survive it.
func (mon *Monitor) bulkGrant(grantID, basePA, pages, producer, consumer uint64) api.Error {
	if pages == 0 || pages > api.BulkMaxPages {
		return api.ErrInvalidValue
	}
	if basePA&mem.PageMask != 0 {
		return api.ErrInvalidValue
	}
	size := pages * mem.PageSize
	if basePA+size < basePA {
		return api.ErrInvalidValue // physical wraparound
	}
	if !mon.osOwnsRange(basePA, size) {
		return api.ErrInvalidValue
	}
	st := mon.createPair(grantID, producer, consumer, func(p endpointPair) {
		for pg := uint64(0); pg < pages; pg++ {
			mon.machine.Mem.Retain(basePA + pg*mem.PageSize)
		}
		mon.grants[grantID] = &Grant{endpointPair: p, BasePA: basePA, Pages: pages,
			maps: make(map[uint64]uint64)}
	})
	if t := mon.tele; t != nil && st == api.OK {
		t.bulkGrants.Add(1)
	}
	return st
}

// hBulkMap implements CallBulkMap (enclave trap context only): the
// accept half of the grant handshake. The calling enclave maps the
// grant's pages read-write into its own tables at va — page-aligned,
// outside the evrange, with the covering leaf tables already allocated
// (a template built with a shared window at the same 2 MiB leaf
// satisfies this, and its clones inherit the tables). Every page is
// validated before the first PTE is written, so a failed map changes
// nothing. Lock order: grant → enclave, same side as bulkRevoke.
//
// The mapping is deliberately not recorded in e.mapped: it is
// post-measurement untrusted window state, not enclave image — a
// snapshot of the enclave must not capture it and a clone must not
// inherit it (each clone bulk_maps its own grant). Double-mapping is
// excluded by the PTE-must-be-invalid check instead.
func hBulkMap(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	g, st := mon.lookupGrant(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	defer g.mu.Unlock()
	e := ctx.enclave
	if !g.isEndpoint(e.ID) {
		return fail(api.ErrUnauthorized)
	}
	if _, already := g.maps[e.ID]; already {
		return fail(api.ErrInvalidState)
	}
	va := req.Args[1]
	if va&mem.PageMask != 0 || va+g.bytes() < va {
		return fail(api.ErrInvalidValue)
	}
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return fail(api.ErrRetry)
	}
	defer e.mu.Unlock()
	pteAddrs := make([]uint64, g.Pages)
	for p := uint64(0); p < g.Pages; p++ {
		pva := va + p*mem.PageSize
		if e.InEvrange(pva) || e.mapped[pva] {
			return fail(api.ErrInvalidValue)
		}
		pteAddr, okLeaf := mon.leafPTEAddr(e, pva)
		if !okLeaf {
			return fail(api.ErrInvalidState) // leaf table missing
		}
		if pte, err := mon.machine.Mem.Load(pteAddr, 8); err != nil || pte&pt.V != 0 {
			return fail(api.ErrInvalidValue) // VA already translates
		}
		pteAddrs[p] = pteAddr
	}
	for p := uint64(0); p < g.Pages; p++ {
		ppn := g.BasePA>>mem.PageBits + p
		mon.machine.Mem.Store(pteAddrs[p], 8, pt.MakePTE(ppn, pt.R|pt.W|pt.V|pt.U))
	}
	g.maps[e.ID] = va
	return ok()
}

// bulkRevoke implements CallBulkRevoke (OS, no-hart context only):
// unmap the grant from every endpoint that mapped it, drop the page
// pins, free the id, and shoot down the mapped translations on every
// core. Refused with ErrInvalidState while descriptors into the grant
// are queued in a ring — the dead/inflight protocol guarantees a
// concurrent bulk_send either lands before the refusal or aborts.
//
// Endpoint enclaves are locked in the fixed producer-then-consumer
// order (never Go map order — replay determinism), and every lock is
// taken before the first mutation so contention fails with ErrRetry
// having changed nothing. The shootdown runs after all locks are
// released: RunOn waits for instruction boundaries, and a hart blocked
// in stopThread's lock acquisition never reaches one, so waiting on
// acknowledgments while holding enclave locks could deadlock. The
// window is benign — the grant is already unregistered, and a stale
// translation reaches only OS-owned memory the enclave could touch
// moments earlier; by return, every core has acknowledged the flush.
func (mon *Monitor) bulkRevoke(grantID uint64) api.Error {
	g, st := mon.lookupGrant(grantID)
	if st != api.OK {
		return st
	}
	type mapping struct {
		e  *Enclave
		va uint64
	}
	var mappings []mapping
	unwind := func() {
		for _, m := range mappings {
			m.e.mu.Unlock()
		}
		g.mu.Unlock()
	}
	endpoints := []uint64{g.Producer}
	if g.Consumer != g.Producer {
		endpoints = append(endpoints, g.Consumer)
	}
	for _, who := range endpoints {
		va, isMapped := g.maps[who]
		if !isMapped {
			continue
		}
		// The endpoint must still exist: deleteEnclave refuses while the
		// enclave is a grant endpoint.
		e, st := mon.lookupEnclave(who)
		if st != api.OK {
			unwind()
			return st
		}
		mappings = append(mappings, mapping{e: e, va: va})
	}
	g.dead.Store(true)
	if g.inflight.Load() != 0 {
		g.dead.Store(false) // rollback: queued descriptors keep it alive
		unwind()
		return api.ErrInvalidState
	}
	var vpns []uint64
	for _, m := range mappings {
		for p := uint64(0); p < g.Pages; p++ {
			pva := m.va + p*mem.PageSize
			pteAddr, okLeaf := mon.leafPTEAddr(m.e, pva)
			if okLeaf { // always true: bulk_map verified the leaf
				mon.machine.Mem.Store(pteAddr, 8, 0)
			}
			vpns = append(vpns, (pva&pt.VAMask)>>mem.PageBits)
		}
		delete(g.maps, m.e.ID)
	}
	for p := uint64(0); p < g.Pages; p++ {
		mon.machine.Mem.ReleaseRef(g.BasePA + p*mem.PageSize)
	}
	mon.objMu.Lock()
	delete(mon.grants, grantID)
	mon.freeMetaPage(grantID)
	mon.objMu.Unlock()
	unwind()
	for id := range mon.machine.Cores {
		mon.machine.RunOn(id, machine.NoHart, func(c *machine.Core) {
			for _, vpn := range vpns {
				c.TLB.FlushPage(vpn)
			}
		})
	}
	if t := mon.tele; t != nil {
		t.bulkGrants.Add(-1)
	}
	return api.OK
}

// parseBulkDescs validates one 64-byte descriptor message against a
// grant's byte size: the BulkTag anchor, a descriptor count in
// 1..BulkMaxDescs, and per descriptor length > 0, no offset+length
// wraparound, offset+length within the grant, and no pairwise overlap
// inside the message. Returns the descriptor count and their total
// byte count. Trailing payload bytes beyond the last descriptor are
// application-defined (a bulk server reads its opcode there) and not
// the monitor's concern.
func parseBulkDescs(payload []byte, grantBytes uint64) (n int, total uint64, st api.Error) {
	if len(payload) < api.RingMsgSize {
		return 0, 0, api.ErrInvalidValue
	}
	if binary.LittleEndian.Uint64(payload) != api.BulkTag {
		return 0, 0, api.ErrInvalidValue
	}
	nd := binary.LittleEndian.Uint64(payload[8:])
	if nd == 0 || nd > api.BulkMaxDescs {
		return 0, 0, api.ErrInvalidValue
	}
	var offs, lens [api.BulkMaxDescs]uint64
	n = int(nd)
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint64(payload[16+16*i:])
		ln := binary.LittleEndian.Uint64(payload[24+16*i:])
		if ln == 0 {
			return 0, 0, api.ErrInvalidValue
		}
		if off+ln < off {
			return 0, 0, api.ErrInvalidValue // wraparound
		}
		if off+ln > grantBytes {
			return 0, 0, api.ErrInvalidValue // out of bounds
		}
		for j := 0; j < i; j++ {
			if off < offs[j]+lens[j] && offs[j] < off+ln {
				return 0, 0, api.ErrInvalidValue // overlap
			}
		}
		offs[i], lens[i] = off, ln
		total += ln
	}
	return n, total, api.OK
}

// admit is bulk_send's grant prelude (hRingSend, ring.go), run on the
// staged batch before the ring transaction. The sender must be a grant
// endpoint (and, checked by the ring transaction, the ring's
// producer). Every message must parse as a descriptor list inside the
// grant before anything is published: a bad descriptor in message k
// must not leave messages 0..k-1 queued. The batch is then published
// in flight before dead is checked, the revoke protocol's mirror
// image: a racing revoke either sees the count and refuses, or has
// marked the grant dead first and the send backs out. It backs out
// with ErrRetry, not ErrInvalidValue: the revoke may yet see this
// send's count and roll dead back, leaving the grant live, so nothing
// is known except that nothing changed — a retry ends in OK or, once
// the revoke has won, ErrInvalidValue.
func (g *Grant) admit(sender uint64, msgs []byte) api.Error {
	if !g.isEndpoint(sender) {
		return api.ErrUnauthorized
	}
	for i := 0; i < len(msgs); i += api.RingMsgSize {
		if _, _, st := parseBulkDescs(msgs[i:], g.bytes()); st != api.OK {
			return st
		}
	}
	n := int64(len(msgs) / api.RingMsgSize)
	g.inflight.Add(n)
	if g.dead.Load() {
		g.inflight.Add(-n)
		return api.ErrRetry
	}
	return api.OK
}

// settle is bulk_send's epilogue: it releases the in-flight count of
// the admitted messages the ring did not take (all of them on a
// refused send, the tail when the ring filled up mid-batch) and
// records the descriptors and bytes of the sent ones.
func (g *Grant) settle(t *monTelemetry, from int, msgs []byte, sent int) {
	g.inflight.Add(int64(sent - len(msgs)/api.RingMsgSize))
	if t == nil || sent == 0 {
		return
	}
	var total uint64
	for i := 0; i < sent; i++ {
		nd, bytes, _ := parseBulkDescs(msgs[i*api.RingMsgSize:], g.bytes())
		t.bulkDescs.ObserveOn(from, uint64(nd))
		total += bytes
	}
	t.bulkBytes.Add(from, total)
}
