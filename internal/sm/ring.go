package sm

// Mailbox rings (DESIGN.md §9): the streaming counterpart of the
// single-slot mailboxes of §VI-B. A ring is a fixed-capacity FIFO of
// fixed-size messages living in monitor-tracked memory, named by an SM
// metadata page (unforgeable, like every other monitor object), with
// one producer and one consumer protection domain fixed at creation.
// Send and recv move up to api.RingMaxBatch messages per monitor call,
// so the per-call overhead (trap or Dispatch, authorization, ring
// transaction) amortizes across a batch; every message is stamped with
// the monitor-attested sender identity and measurement, preserving the
// mailbox system's attestation-grade provenance at streaming rates.
//
// The park/wake protocol is what removes OS polling from the serving
// path: an enclave consumer that finds its ring empty parks
// (CallRingPark) — the monitor registers it as the ring's waiter and
// performs an AEX-style exit with api.ParkedExitValue, saving a
// context whose resume re-executes the park ECALL — and the next send
// wakes it by posting a request through the PR 2 inter-processor
// mailboxes to the OS's registered wake sink. The sink is the
// simulation's analogue of the inter-processor interrupt a hardware
// monitor would raise at the kernel: a notification only, carrying no
// authority (the OS still schedules through enter_enclave, and the
// monitor still verifies).

import (
	"encoding/binary"
	"sort"
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/sm/api"
)

// endpointPair is what rings and bulk grants have in common: an id
// (an SM metadata page) and one producer and one consumer protection
// domain fixed at creation. createPair registers both kinds and
// pairBytes lists both to their endpoint enclaves.
type endpointPair struct {
	ID       uint64
	Producer uint64 // api.DomainOS or an eid
	Consumer uint64
	seq      uint64 // creation order, for FieldEnclaveRings/Grants
}

// isEndpoint reports whether who (DomainOS or an eid) is one of the
// pair's fixed endpoints.
func (p *endpointPair) isEndpoint(who uint64) bool {
	return who == p.Producer || who == p.Consumer
}

// Ring is the monitor's metadata for one mailbox ring. The mutex is
// the ring's §V-A transaction lock, taken with TryLock; contended
// calls fail with ErrRetry having changed nothing.
type Ring struct {
	mu sync.Mutex
	endpointPair
	dead bool // set by destroy under mu; a racing lookup re-checks

	slots []ringMsg
	head  int // oldest undelivered message
	count int

	// Parked consumer thread (0 = none). Registered by ring_park on an
	// empty ring, popped by the next send, an explicit wake, or
	// destroy.
	waiterEID uint64
	waiterTID uint64

	// parkStamp is the telemetry cycle stamp taken when the waiter
	// parked (guarded by mu); the wake path reads it to record the
	// park→wake wait. Zero when telemetry is disabled.
	parkStamp uint64

	// scratch is the ring's recv staging buffer, reused across calls
	// (guarded by mu like the slots) so batched recv allocates nothing
	// per message.
	scratch []byte
}

// ringMsg is one queued message with its monitor-attested stamp. grant
// is zero for a plain message and the grant id for a scatter-gather
// descriptor message (bulk.go) — the two are never mixed on delivery:
// every recv drains only the head run stamped with its own grant.
type ringMsg struct {
	sender  uint64
	meas    [32]byte
	grant   uint64
	payload [api.RingMsgSize]byte
}

// headRunLocked counts the consecutive messages at the ring head
// stamped with the given grant id (zero = plain), up to max. Caller
// holds r.mu.
func (r *Ring) headRunLocked(grant uint64, max int) int {
	n := min(max, r.count)
	for i := 0; i < n; i++ {
		if r.slots[(r.head+i)%len(r.slots)].grant != grant {
			return i
		}
	}
	return n
}

// takeWaiterLocked pops the parked waiter, if any. Caller holds r.mu.
func (r *Ring) takeWaiterLocked() (eid, tid uint64) {
	eid, tid = r.waiterEID, r.waiterTID
	r.waiterEID, r.waiterTID = 0, 0
	return eid, tid
}

// lookupRing fetches and transaction-locks a ring; contention fails
// the transaction with ErrRetry (§V-A). The dead re-check closes the
// lookup/destroy race: a hart that fetched the pointer before a
// concurrent destroy removed it must not operate on the orphaned
// object (messages would vanish, and a recreated ring under the same
// id would split into two objects).
func (mon *Monitor) lookupRing(id uint64) (*Ring, api.Error) {
	mon.objMu.RLock()
	r := mon.rings[id]
	mon.objMu.RUnlock()
	if r == nil {
		return nil, api.ErrInvalidValue
	}
	if !mon.tryLock(&r.mu, LockRing, id) {
		return nil, api.ErrRetry
	}
	if r.dead {
		r.mu.Unlock()
		return nil, api.ErrInvalidValue
	}
	return r, api.OK
}

// SetWakeSink registers the untrusted OS's wake notification handler.
// When a send (or explicit wake, or destroy) finds a parked consumer,
// the monitor posts a request through a core's IPI mailbox whose body
// invokes fn(ringID, eid, tid) — the simulation analogue of the
// inter-processor interrupt a hardware monitor raises to tell the
// kernel a thread became runnable. fn runs on whatever goroutine
// drains the mailbox (the posting one if the core is idle, the core's
// own at its next instruction boundary if it is running), so it must
// be quick and goroutine-safe, and must not call back into the
// monitor.
func (mon *Monitor) SetWakeSink(fn func(ringID, eid, tid uint64)) {
	mon.wakeSink.Store(fn)
}

// postWake routes one wake to the OS sink through core 0's IPI
// mailbox, waiting for the acknowledgment (RunOn) so a wake is never
// stranded in the mailbox of a core that just went idle — the wake is
// the only signal the OS has that a parked thread became runnable.
// from is the posting hart (machine.NoHart for host-side calls): a
// sender trapping on core 0 itself delivers inline, which is exactly
// its own instruction boundary. The wake stays advisory: a stale one
// costs the OS a failed enter_enclave, never monitor state.
func (mon *Monitor) postWake(from int, ringID, eid, tid uint64) {
	v := mon.wakeSink.Load()
	if v == nil {
		return
	}
	sink := v.(func(uint64, uint64, uint64))
	mon.machine.RunOn(0, from, func(*machine.Core) { sink(ringID, eid, tid) })
}

// createPair registers a ring or grant between a fixed producer and
// consumer. Endpoints are DomainOS or existing enclaves; the reserved
// SM identity is refused. The id is claimed exactly like enclave,
// thread and snapshot ids — a free page inside an SM metadata region —
// and add installs the object under objMu once the id is claimed. Each
// enclave endpoint is held under its transaction lock while the object
// registers, which — paired with deleteEnclave's endpoint guard —
// excludes the race where a ring or grant attaches to an enclave
// mid-deletion and survives it: either the create sees the enclave and
// the delete then refuses, or the delete wins and the create fails
// (retry or unknown id).
func (mon *Monitor) createPair(id, producer, consumer uint64, add func(p endpointPair)) api.Error {
	for i, who := range [2]uint64{producer, consumer} {
		if who == api.DomainOS || (i == 1 && who == producer) {
			continue
		}
		e, st := mon.lookupEnclave(who)
		if st != api.OK {
			return st
		}
		defer e.mu.Unlock()
	}
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if st := mon.allocMetaPage(id); st != api.OK {
		return st
	}
	mon.pairSeq++
	add(endpointPair{ID: id, Producer: producer, Consumer: consumer, seq: mon.pairSeq})
	return api.OK
}

// ringCreate implements CallRingCreate (OS-domain): register a ring of
// the given capacity through createPair.
func (mon *Monitor) ringCreate(ringID, producer, consumer, capacity uint64) api.Error {
	if capacity == 0 || capacity > api.RingMaxCapacity {
		return api.ErrInvalidValue
	}
	return mon.createPair(ringID, producer, consumer, func(p endpointPair) {
		mon.rings[ringID] = &Ring{endpointPair: p, slots: make([]ringMsg, capacity)}
	})
}

// ringDestroy implements CallRingDestroy (OS-domain): unregister the
// ring, free its id, and wake any parked consumer — whose re-executed
// park then fails with ErrInvalidValue, the consumer's shutdown
// signal. Undelivered messages are dropped (the ring is monitor
// memory; nothing leaks to any untrusted domain).
func (mon *Monitor) ringDestroy(ringID uint64) api.Error {
	r, st := mon.lookupRing(ringID)
	if st != api.OK {
		return st
	}
	weid, wtid := r.takeWaiterLocked()
	r.dead = true
	queued := r.count
	// Undelivered scatter-gather descriptors die with the ring; their
	// in-flight pins on the grants must die too, or the grants could
	// never be revoked. Counted under r.mu, released under objMu so a
	// concurrent bulk_revoke sees a consistent grant table.
	sgQueued := make(map[uint64]int64)
	for i := 0; i < r.count; i++ {
		if gid := r.slots[(r.head+i)%len(r.slots)].grant; gid != 0 {
			sgQueued[gid]++
		}
	}
	mon.objMu.Lock()
	delete(mon.rings, ringID)
	mon.freeMetaPage(ringID)
	for gid, c := range sgQueued {
		if g := mon.grants[gid]; g != nil {
			g.inflight.Add(-c)
		}
	}
	mon.objMu.Unlock()
	r.mu.Unlock()
	if t := mon.tele; t != nil && queued > 0 {
		// Undelivered messages die with the ring; keep the fleet-wide
		// depth gauge honest.
		t.ringDepth.Add(-int64(queued))
	}
	if wtid != 0 {
		mon.postWake(machine.NoHart, ringID, weid, wtid)
	}
	return api.OK
}

// ringEnqueue appends the staged messages (RingMsgSize bytes each) to
// the ring under its transaction lock, as many as fit, waking a parked
// consumer. sender and meas are the monitor-attested stamp; grant is
// zero for plain messages and the grant id for scatter-gather
// descriptors (bulk.go). Returns the count actually enqueued.
func (mon *Monitor) ringEnqueue(from int, ringID, sender uint64, meas [32]byte, grant uint64, msgs []byte) (int, api.Error) {
	r, st := mon.lookupRing(ringID)
	if st != api.OK {
		return 0, st
	}
	if r.Producer != sender {
		r.mu.Unlock()
		return 0, api.ErrUnauthorized
	}
	n := min(len(msgs)/api.RingMsgSize, len(r.slots)-r.count)
	if n == 0 {
		r.mu.Unlock()
		return 0, api.ErrInvalidState // full
	}
	for i := 0; i < n; i++ {
		slot := &r.slots[(r.head+r.count+i)%len(r.slots)]
		copy(slot.payload[:], msgs[i*api.RingMsgSize:])
		slot.sender, slot.meas, slot.grant = sender, meas, grant
	}
	r.count += n
	weid, wtid := r.takeWaiterLocked()
	stamp := r.parkStamp
	r.mu.Unlock()
	if t := mon.tele; t != nil {
		t.ringSendBatch.ObserveOn(from, uint64(n))
		t.ringDepth.Add(int64(n))
		if wtid != 0 {
			t.ringWakes.Inc(from)
			t.ringParkWait.ObserveOn(from, t.clock()-stamp)
		}
	}
	if wtid != 0 {
		mon.postWake(from, ringID, weid, wtid)
	}
	return n, api.OK
}

// ringRecords serializes the ring's oldest n messages as recv records
// (measurement ‖ sender id ‖ payload) into the ring's scratch buffer,
// valid until the lock is released. Caller holds r.mu.
func (r *Ring) ringRecords(n int) []byte {
	if cap(r.scratch) < api.RingMaxBatch*api.RingRecordSize {
		r.scratch = make([]byte, api.RingMaxBatch*api.RingRecordSize)
	}
	out := r.scratch[:n*api.RingRecordSize]
	for i := 0; i < n; i++ {
		slot := &r.slots[(r.head+i)%len(r.slots)]
		rec := out[i*api.RingRecordSize:]
		copy(rec, slot.meas[:])
		binary.LittleEndian.PutUint64(rec[32:], slot.sender)
		copy(rec[api.RingStampSize:api.RingRecordSize], slot.payload[:])
	}
	return out
}

// popLocked drops the oldest n messages. Caller holds r.mu.
func (r *Ring) popLocked(n int) {
	r.head = (r.head + n) % len(r.slots)
	r.count -= n
}

// pairBytes serves FieldEnclaveRings (grants false) and
// FieldEnclaveGrants (grants true): the rings or grants eid is an
// endpoint of, in creation order, as id[8] ‖ role[8] entries (role 0 =
// consumer, 1 = producer), a grant's entry followed by its byte
// size[8].
func (mon *Monitor) pairBytes(eid uint64, grants bool) []byte {
	type entry struct {
		endpointPair
		role, size uint64
	}
	var entries []entry
	add := func(p endpointPair, size uint64) {
		if p.Consumer == eid {
			entries = append(entries, entry{p, 0, size})
		}
		if p.Producer == eid {
			entries = append(entries, entry{p, 1, size})
		}
	}
	mon.objMu.RLock()
	if grants {
		for _, g := range mon.grants {
			add(g.endpointPair, g.bytes())
		}
	} else {
		for _, r := range mon.rings {
			add(r.endpointPair, 0)
		}
	}
	mon.objMu.RUnlock()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	var out []byte
	for _, en := range entries {
		out = binary.LittleEndian.AppendUint64(out, en.ID)
		out = binary.LittleEndian.AppendUint64(out, en.role)
		if grants {
			out = binary.LittleEndian.AppendUint64(out, en.size)
		}
	}
	return out
}

// --- dispatch handlers ---

// batchLen validates a send/recv count argument and returns it.
func batchLen(count uint64) (int, bool) {
	if count == 0 || count > api.RingMaxBatch {
		return 0, false
	}
	return int(count), true
}

// hRingSend is the dual-domain send handler of ring_send and, with a
// grant, bulk_send. The batch is staged from caller memory into a
// stack buffer before the ring transaction: the read has no side
// effects, so a contended ring still means no state changed, and a
// send allocates nothing. bulk_send wraps a short grant prelude around
// the same path: the grant must exist before staging, admit (bulk.go)
// checks the staged batch against it, and settle releases what the
// ring did not take.
func hRingSend(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	n, okCount := batchLen(req.Args[2])
	if !okCount {
		return fail(api.ErrInvalidValue)
	}
	var g *Grant
	if req.Call == api.CallBulkSend {
		if g = mon.peekGrant(req.Args[3]); g == nil {
			return fail(api.ErrInvalidValue)
		}
	}
	sender, meas, from := api.DomainOS, [32]byte{}, machine.NoHart
	if ctx != nil {
		sender, meas, from = ctx.enclave.ID, ctx.enclave.Measurement, ctx.core.ID
	}
	var staged [api.RingMaxBatch * api.RingMsgSize]byte
	msgs := staged[:n*api.RingMsgSize]
	if !mon.copyIn(ctx, req.Args[1], msgs) {
		return fail(api.ErrInvalidValue)
	}
	var grant uint64
	if g != nil {
		if st := g.admit(sender, msgs); st != api.OK {
			return fail(st)
		}
		grant = g.ID
	}
	sent, st := mon.ringEnqueue(from, req.Args[0], sender, meas, grant, msgs)
	if g != nil {
		g.settle(mon.tele, from, msgs, sent)
	}
	if st != api.OK {
		return fail(st)
	}
	return ok(uint64(sent))
}

// hRingRecv is the dual-domain recv handler of ring_recv and, with a
// grant, bulk_recv. It drains only the run at the ring head stamped
// with its grant (zero for ring_recv): a descriptor head must go
// through bulk_recv naming its grant, which releases the in-flight
// pins — a plain recv draining it would strand the grant
// un-revocable. bulk_recv's prelude requires the grant to exist and
// the caller to be one of its endpoints. The records are written
// while the ring transaction holds the lock and popped only after the
// copy-out succeeded, so a recv into an invalid buffer consumes
// nothing.
func hRingRecv(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	max, okCount := batchLen(req.Args[2])
	if !okCount {
		return fail(api.ErrInvalidValue)
	}
	caller, from := api.DomainOS, machine.NoHart
	if ctx != nil {
		caller, from = ctx.enclave.ID, ctx.core.ID
	}
	var g *Grant
	var grant uint64
	if req.Call == api.CallBulkRecv {
		if g = mon.peekGrant(req.Args[3]); g == nil {
			return fail(api.ErrInvalidValue)
		}
		if !g.isEndpoint(caller) {
			return fail(api.ErrUnauthorized)
		}
		grant = g.ID
	}
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	defer r.mu.Unlock()
	if r.Consumer != caller {
		return fail(api.ErrUnauthorized)
	}
	if r.count == 0 {
		return fail(api.ErrInvalidState)
	}
	n := r.headRunLocked(grant, max)
	if n == 0 {
		return fail(api.ErrInvalidValue)
	}
	// Writing into a clone may resolve a COW alias; the enclave
	// transaction lock it takes is never held while anyone waits on a
	// ring lock, so the order ring → enclave cannot deadlock.
	if !mon.copyOut(ctx, req.Args[1], r.ringRecords(n)) {
		return fail(api.ErrInvalidValue)
	}
	r.popLocked(n)
	if g != nil {
		g.inflight.Add(-int64(n))
	}
	if t := mon.tele; t != nil {
		t.ringRecvBatch.ObserveOn(from, uint64(n))
		t.ringDepth.Add(-int64(n))
	}
	return ok(uint64(n))
}

// hRingPark implements thread_park (enclave trap context only). A
// non-empty ring returns immediately; an empty one registers the
// thread as the ring's waiter and performs an AEX-style exit whose
// saved context re-executes this ECALL on resume — so a woken thread
// transparently re-checks the ring, and a spurious wake simply parks
// again. The ring lock is released before stopThread's blocking
// thread/enclave acquisitions, keeping ring locks leaves of the lock
// order.
func hRingPark(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	if r.Consumer != ctx.enclave.ID {
		r.mu.Unlock()
		return fail(api.ErrUnauthorized)
	}
	if r.count > 0 {
		n := uint64(r.count)
		r.mu.Unlock()
		return ok(n)
	}
	if r.waiterTID != 0 && r.waiterTID != ctx.thread.ID {
		r.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	r.waiterEID, r.waiterTID = ctx.enclave.ID, ctx.thread.ID
	if t := mon.tele; t != nil {
		r.parkStamp = t.clock()
		t.ringParks.Inc(ctx.core.ID)
	}
	r.mu.Unlock()
	// AEX-save with the park marker: the PC is not advanced (the trap
	// path advances it only for non-transfer calls), so resume_aex
	// re-executes the park.
	mon.stopThread(uint64(ctx.core.ID), api.ParkedExitValue, true)
	ctx.transfer(machine.DispReturnToOS)
	return ok()
}

// hRingWake is the dual-domain explicit wake, authorized against the
// producer (wake-spoofing by any other domain is refused).
func hRingWake(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	caller, from := api.DomainOS, machine.NoHart
	if ctx != nil {
		caller, from = ctx.enclave.ID, ctx.core.ID
	}
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	if r.Producer != caller {
		r.mu.Unlock()
		return fail(api.ErrUnauthorized)
	}
	weid, wtid := r.takeWaiterLocked()
	stamp := r.parkStamp
	r.mu.Unlock()
	if wtid == 0 {
		return ok(0)
	}
	if t := mon.tele; t != nil {
		t.ringWakes.Inc(from)
		t.ringParkWait.ObserveOn(from, t.clock()-stamp)
	}
	mon.postWake(from, req.Args[0], weid, wtid)
	return ok(1)
}
