package sm

import (
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/sm/api"
)

// This file is the monitor's single dispatch surface: every monitor
// call — from the untrusted OS and from enclaves alike — is an
// api.Request routed through one table by call number, with the
// caller-domain authorization applied in exactly one place (paper §V-A:
// the SM exposes the same register-convention API to all untrusted
// software). The enclave trap path (trap.go) and the host-side
// Dispatch/DispatchBatch entries both land in dispatch below.

// Caller domains a call may be invoked from.
const (
	domainOS      uint8 = 1 << 0
	domainEnclave uint8 = 1 << 1
)

// callContext is the machine context of an enclave ECALL: the trapping
// core and the enclave/thread executing on it. Host-side dispatches
// carry a nil context — which is itself the privilege boundary: only a
// trapping core can speak for an enclave, so a host Request claiming an
// enclave caller is refused before any handler runs.
type callContext struct {
	core    *machine.Core
	enclave *Enclave
	thread  *Thread

	// transferred is set by control-transfer handlers (exit, resume):
	// the handler already programmed the core and the trap path must
	// not write back a status or advance the PC.
	transferred bool
	disp        machine.Disposition
}

func (ctx *callContext) transfer(d machine.Disposition) {
	ctx.transferred = true
	ctx.disp = d
}

// callDef describes one ABI call: which domains may invoke it and how.
// Calls that operate on a caller-named enclave under its transaction
// lock (the enclave-build sequence) provide encHandler instead of
// handler; dispatch acquires the lock, and DispatchBatch keeps it
// across consecutive same-enclave requests to amortize the per-call
// locking.
type callDef struct {
	name    string
	domains uint8
	handler func(mon *Monitor, req api.Request, ctx *callContext) api.Response
	// encHandler runs with the enclave named by Args[0] looked up and
	// transaction-locked.
	encHandler func(mon *Monitor, e *Enclave, req api.Request) api.Response
}

func ok(values ...uint64) api.Response {
	r := api.Response{Status: api.OK}
	copy(r.Values[:], values)
	return r
}

// fail wraps a status — a known error or a relayed transaction result —
// into a Response with no values.
func fail(st api.Error) api.Response { return api.Response{Status: st} }

// callTable is the one routing table of the ABI. The call-number
// inventory (arguments, results, error sets) is documented in DESIGN.md
// §"Monitor call ABI".
var callTable = map[api.Call]callDef{
	// Probe — any domain.
	api.CallGetABIVersion: {name: "get_abi_version", domains: domainOS | domainEnclave,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return ok(api.Version)
		}},

	// Enclave-domain calls (trap context only).
	api.CallExitEnclave:     {name: "exit_enclave", domains: domainEnclave, handler: hExitEnclave},
	api.CallGetRandom:       {name: "get_random", domains: domainEnclave, handler: hGetRandom},
	api.CallAcceptMail:      {name: "accept_mail", domains: domainEnclave, handler: hAcceptMail},
	api.CallGetMail:         {name: "get_mail", domains: domainEnclave, handler: hGetMail},
	api.CallAcceptThread:    {name: "accept_thread", domains: domainEnclave, handler: hAcceptThread},
	api.CallReleaseThread:   {name: "release_thread", domains: domainEnclave, handler: hReleaseThread},
	api.CallAcceptRegion:    {name: "accept_region", domains: domainEnclave, handler: hAcceptRegion},
	api.CallAttestSign:      {name: "attest_sign", domains: domainEnclave, handler: hAttestSign},
	api.CallResumeAEX:       {name: "resume_aex", domains: domainEnclave, handler: hResumeAEX},
	api.CallSetFaultHandler: {name: "set_fault_handler", domains: domainEnclave, handler: hSetFaultHandler},
	api.CallResumeFault:     {name: "resume_fault", domains: domainEnclave, handler: hResumeFault},
	api.CallMyEnclaveID:     {name: "my_enclave_id", domains: domainEnclave, handler: hMyEnclaveID},
	api.CallKADerive:        {name: "ka_derive", domains: domainEnclave, handler: hKADerive},
	api.CallKACombine:       {name: "ka_combine", domains: domainEnclave, handler: hKACombine},
	api.CallMAC:             {name: "mac", domains: domainEnclave, handler: hMAC},

	// Dual-domain calls: one number, per-domain argument convention.
	api.CallSendMail:    {name: "send_mail", domains: domainOS | domainEnclave, handler: hSendMail},
	api.CallGetField:    {name: "get_field", domains: domainOS | domainEnclave, handler: hGetField},
	api.CallBlockRegion: {name: "block_region", domains: domainOS | domainEnclave, handler: hBlockRegion},

	// OS-domain calls (Figs 2–4 resource management).
	api.CallCreateEnclave: {name: "create_enclave", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.createEnclave(req.Args[0], req.Args[1], req.Args[2]))
		}},
	api.CallAllocPageTable: {name: "allocate_page_table", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			return fail(mon.allocatePageTableLocked(e, req.Args[1], int(req.Args[2])))
		}},
	api.CallLoadPage: {name: "load_page", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			return fail(mon.loadPageLocked(e, req.Args[1], req.Args[2], req.Args[3]))
		}},
	api.CallMapShared: {name: "map_shared", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			return fail(mon.mapSharedLocked(e, req.Args[1], req.Args[2]))
		}},
	api.CallInitEnclave: {name: "init_enclave", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			return fail(mon.initEnclaveLocked(e))
		}},
	api.CallDeleteEnclave: {name: "delete_enclave", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.deleteEnclave(req.Args[0]))
		}},
	api.CallEnclaveStatus: {name: "enclave_status", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			state, st := mon.enclaveStatusLocked(e, req.Args[1])
			if st != api.OK {
				return fail(st)
			}
			return ok(state)
		}},
	api.CallLoadThread: {name: "load_thread", domains: domainOS,
		encHandler: func(mon *Monitor, e *Enclave, req api.Request) api.Response {
			return fail(mon.loadThreadLocked(e, req.Args[1], req.Args[2], req.Args[3]))
		}},
	api.CallCreateThread: {name: "create_thread", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.createThread(req.Args[0]))
		}},
	api.CallAssignThread: {name: "assign_thread", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.assignThread(req.Args[0], req.Args[1]))
		}},
	api.CallUnassignThread: {name: "unassign_thread", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.unassignThread(req.Args[0]))
		}},
	api.CallDeleteThread: {name: "delete_thread", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.deleteThread(req.Args[0]))
		}},
	api.CallEnterEnclave: {name: "enter_enclave", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			// int() maps any register value ≥ 2^63 to a negative number,
			// which the core-range check refuses.
			return fail(mon.enterEnclave(int(req.Args[0]), req.Args[1], req.Args[2]))
		}},
	api.CallRegionInfo: {name: "region_info", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			state, owner, st := mon.regionInfo(indexArg(req.Args[0]))
			if st != api.OK {
				return fail(st)
			}
			return ok(uint64(state), owner)
		}},
	api.CallGrantRegion: {name: "grant_region", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.grantRegion(indexArg(req.Args[0]), req.Args[1]))
		}},
	api.CallCleanRegion: {name: "clean_region", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.cleanRegion(indexArg(req.Args[0])))
		}},

	// Mailbox-ring calls (0x40–0x45, ABI minor 2): streaming IPC with
	// batched send/recv and park/wake scheduling (DESIGN.md §9).
	api.CallRingCreate: {name: "mailbox_ring_create", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.ringCreate(req.Args[0], req.Args[1], req.Args[2], req.Args[3]))
		}},
	api.CallRingSend: {name: "mailbox_ring_send", domains: domainOS | domainEnclave, handler: hRingSend},
	api.CallRingRecv: {name: "mailbox_ring_recv", domains: domainOS | domainEnclave, handler: hRingRecv},
	api.CallRingPark: {name: "thread_park", domains: domainEnclave, handler: hRingPark},
	api.CallRingWake: {name: "mailbox_ring_wake", domains: domainOS | domainEnclave, handler: hRingWake},
	api.CallRingDestroy: {name: "mailbox_ring_destroy", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.ringDestroy(req.Args[0]))
		}},

	// Bulk-grant calls (0x50–0x54, ABI minor 3): the zero-copy data
	// plane — monitor-granted shared buffers with scatter-gather
	// descriptors over the rings (DESIGN.md §14).
	api.CallBulkGrant: {name: "bulk_grant", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.bulkGrant(req.Args[0], req.Args[1], req.Args[2], req.Args[3], req.Args[4]))
		}},
	api.CallBulkMap: {name: "bulk_map", domains: domainEnclave, handler: hBulkMap},
	api.CallBulkRevoke: {name: "bulk_revoke", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.bulkRevoke(req.Args[0]))
		}},
	api.CallBulkSend: {name: "bulk_send", domains: domainOS | domainEnclave, handler: hRingSend},
	api.CallBulkRecv: {name: "bulk_recv", domains: domainOS | domainEnclave, handler: hRingRecv},

	// Snapshot/clone calls (0x30–0x32, ABI minor 1): fork-from-measured-
	// template lifecycle (DESIGN.md §8).
	api.CallSnapshotEnclave: {name: "snapshot_enclave", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.snapshotEnclave(req.Args[0], req.Args[1]))
		}},
	api.CallCloneEnclave: {name: "clone_enclave", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.cloneEnclave(req.Args[0], req.Args[1], req.Args[2], req.Args[3]))
		}},
	api.CallReleaseSnapshot: {name: "release_snapshot", domains: domainOS,
		handler: func(mon *Monitor, req api.Request, ctx *callContext) api.Response {
			return fail(mon.releaseSnapshot(req.Args[0]))
		}},
}

// indexArg narrows a register argument to a small index (region or
// mailbox), mapping anything that does not round-trip to -1 so the
// range checks in the transactions reject it.
func indexArg(v uint64) int {
	i := int(v)
	if i < 0 || uint64(i) != v {
		return -1
	}
	return i
}

// Dispatch executes one monitor call from host-side untrusted software
// (the OS of the paper's threat model) and returns its Response. It is
// the OS half of the unified ABI: the same call table and the same
// authorization the enclave trap path uses, so every privilege check
// lives here. Host callers may only speak for the OS domain — Requests
// with an enclave Caller are refused with ErrUnauthorized, because an
// enclave identity can only be established by a core trapping out of
// that enclave.
//
// Contended calls fail with api.ErrRetry having changed no state; the
// smcall client centralizes the retry discipline.
func (mon *Monitor) Dispatch(req api.Request) api.Response {
	return mon.dispatch(req, nil)
}

// dispatch is the single routing point for both entries. ctx is nil for
// host-side (OS) calls and carries the trapping core for enclave calls.
// When the facade wired a telemetry registry, every call is observed
// here: count, ErrRetry count, and a cycle-clocked latency histogram,
// sharded by the trapping core. Without one, the cost is one nil check.
func (mon *Monitor) dispatch(req api.Request, ctx *callContext) api.Response {
	t := mon.tele
	if t == nil {
		return mon.dispatchCall(req, ctx)
	}
	ci := t.call(req.Call)
	if ctx == nil {
		return ci.countHost(mon.dispatchCall(req, nil))
	}
	if ci == nil {
		return mon.dispatchCall(req, ctx)
	}
	// The latency clock is the trapping core's own cycle counter, read
	// plainly — dispatch runs on that core's goroutine, and only the
	// core itself retires cycles during the call. Host-side calls
	// (ctx == nil) retire zero simulated cycles by definition, so only
	// enclave-side calls feed the cycle histogram: counting thousands
	// of definitional zeros would cost atomics and carry no signal
	// (DESIGN.md §13), and summing the global clock here would only
	// pick up other cores' concurrent progress.
	shard := ctx.core.ID
	begin := ctx.core.CPU.Cycles
	resp := mon.dispatchCall(req, ctx)
	ci.count.Inc(shard)
	ci.cycles.ObserveOn(shard, ctx.core.CPU.Cycles-begin)
	if resp.Status == api.ErrRetry {
		ci.retries.Inc(shard)
	}
	return resp
}

// authorized is the one caller-domain check: a host-side request (ctx
// nil) may only speak for the OS, on a call open to the OS domain; a
// trap only on a call open to the enclave domain.
func (def *callDef) authorized(req api.Request, ctx *callContext) bool {
	if ctx == nil {
		return req.Caller == api.DomainOS && def.domains&domainOS != 0
	}
	return def.domains&domainEnclave != 0
}

func (mon *Monitor) dispatchCall(req api.Request, ctx *callContext) api.Response {
	def, known := callTable[req.Call]
	if !known {
		return fail(api.ErrNotSupported)
	}
	if !def.authorized(req, ctx) {
		return fail(api.ErrUnauthorized)
	}
	if def.encHandler != nil {
		e, st := mon.lookupEnclave(req.Args[0])
		if st != api.OK {
			return fail(st)
		}
		defer e.mu.Unlock()
		return def.encHandler(mon, e, req)
	}
	return def.handler(mon, req, ctx)
}

// DispatchBatch submits a sequence of OS-domain calls in order,
// returning one Response per Request. A batch is a sequence, not a
// transaction: each element has exactly the semantics of a lone
// Dispatch, and an element's failure does not roll back its
// predecessors. Two things distinguish it from a caller-side loop:
//
//   - Lock amortization: consecutive requests naming the same enclave
//     (the hot enclave-build sequence — allocate tables, load N pages,
//     init) hold the enclave's transaction lock once across the run
//     instead of acquiring and releasing it per call.
//   - Contention cut: the first ErrRetry stops the batch at that
//     element; it and every later element return ErrRetry unexecuted,
//     so the caller can re-submit the tail without re-running the
//     completed prefix (the smcall client does this automatically).
func (mon *Monitor) DispatchBatch(reqs []api.Request) []api.Response {
	out := make([]api.Response, len(reqs))
	var held *Enclave
	var heldID uint64
	release := func() {
		if held != nil {
			held.mu.Unlock()
			held = nil
		}
	}
	defer release()
	for i := range reqs {
		req := reqs[i]
		def, known := callTable[req.Call]
		if known && def.encHandler != nil && def.authorized(req, nil) {
			if held == nil || heldID != req.Args[0] {
				release()
				e, st := mon.lookupEnclave(req.Args[0])
				if st == api.ErrRetry {
					for j := i; j < len(reqs); j++ {
						out[j] = fail(api.ErrRetry)
					}
					return out
				}
				if st != api.OK {
					out[i] = fail(st)
					continue
				}
				held, heldID = e, req.Args[0]
			}
			out[i] = mon.tele.call(req.Call).countHost(def.encHandler(mon, held, req))
		} else {
			// Anything else — including unknown or unauthorized calls —
			// takes the single-call path; the held lock is released
			// first so a call touching the same enclave through another
			// lock order (grant, delete) cannot self-deadlock.
			release()
			out[i] = mon.dispatch(req, nil)
		}
		if out[i].Status == api.ErrRetry {
			release()
			for j := i + 1; j < len(reqs); j++ {
				out[j] = fail(api.ErrRetry)
			}
			return out
		}
	}
	return out
}

// --- Enclave-domain handlers (ctx is always non-nil: the table only
// routes these from a trap context) ---

func hExitEnclave(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	mon.stopThread(uint64(ctx.core.ID), req.Args[0], false)
	ctx.transfer(machine.DispReturnToOS)
	return ok()
}

func hResumeAEX(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	t := ctx.thread
	t.mu.Lock()
	if !t.AEXValid {
		t.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	ctx.core.CPU.Regs = t.aexRegs
	ctx.core.CPU.PC = t.aexPC
	t.AEXValid = false
	t.mu.Unlock()
	ctx.transfer(machine.DispResume)
	return ok()
}

func hResumeFault(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	t := ctx.thread
	t.mu.Lock()
	if !t.inFault {
		t.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	ctx.core.CPU.Regs = t.faultRegs
	ctx.core.CPU.PC = t.faultPC
	t.inFault = false
	t.mu.Unlock()
	ctx.transfer(machine.DispResume)
	return ok()
}

func hSetFaultHandler(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	pc, sp := req.Args[0], req.Args[1]
	if pc != 0 && !ctx.enclave.InEvrange(pc) {
		return fail(api.ErrInvalidValue)
	}
	t := ctx.thread
	t.mu.Lock()
	t.FaultPC, t.FaultSP = pc, sp
	t.mu.Unlock()
	return ok()
}

func hGetRandom(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	var b [8]byte
	mon.machine.Entropy.Read(b[:])
	var v uint64
	for i, x := range b {
		v |= uint64(x) << (8 * uint(i))
	}
	return ok(v)
}

func hMyEnclaveID(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return ok(ctx.enclave.ID)
}

func hAcceptMail(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.acceptMail(ctx.enclave, indexArg(req.Args[0]), req.Args[1]))
}

func hGetMail(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	e := ctx.enclave
	msg, senderMeas, st := mon.getMail(e, indexArg(req.Args[0]))
	if st != api.OK {
		return fail(st)
	}
	out := append(append([]byte(nil), senderMeas[:]...), msg...)
	if !mon.writeEnclave(e, req.Args[1], out) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

func hAcceptThread(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.acceptThread(ctx.enclave, req.Args[0], req.Args[1], req.Args[2]))
}

func hReleaseThread(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.releaseThread(ctx.enclave, req.Args[0]))
}

func hAcceptRegion(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.acceptRegion(ctx.enclave, indexArg(req.Args[0])))
}

func hAttestSign(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	sig, st := mon.attestSign(ctx.enclave, req.Args[0], req.Args[1])
	if st != api.OK {
		return fail(st)
	}
	if !mon.writeEnclave(ctx.enclave, req.Args[2], sig) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

func hKADerive(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.kaDerive(ctx.enclave, req.Args[0], req.Args[1]))
}

func hKACombine(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.kaCombine(ctx.enclave, req.Args[0], req.Args[1], req.Args[2]))
}

func hMAC(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	return fail(mon.macService(ctx.enclave, req.Args[0], req.Args[1], req.Args[2], req.Args[3]))
}

// --- Dual-domain handlers: ctx non-nil means the enclave convention,
// nil the OS convention ---

// hSendMail: an enclave sends a full MailboxSize message from a1 (a
// VA), stamped with its identity and measurement. The OS passes a1 = a
// source PA in OS-owned memory and a2 = length; its message is
// zero-padded and carries the reserved OS identity and a zero
// measurement, so no enclave can mistake it for an enclave.
func hSendMail(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	sender, meas, n := api.DomainOS, [32]byte{}, req.Args[2]
	if ctx != nil {
		sender, meas, n = ctx.enclave.ID, ctx.enclave.Measurement, api.MailboxSize
	}
	if n > api.MailboxSize {
		return fail(api.ErrInvalidValue)
	}
	msg := make([]byte, api.MailboxSize)
	if n > 0 && !mon.copyIn(ctx, req.Args[1], msg[:n]) {
		return fail(api.ErrInvalidValue)
	}
	return fail(mon.deliverMail(sender, meas, req.Args[0], msg))
}

func hGetField(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	var caller *Enclave
	if ctx != nil {
		caller = ctx.enclave
	}
	data, st := mon.fieldBytes(api.Field(req.Args[0]), caller)
	if st != api.OK {
		return fail(st)
	}
	if uint64(len(data)) > req.Args[2] || !mon.copyOut(ctx, req.Args[1], data) {
		return fail(api.ErrInvalidValue)
	}
	return ok(uint64(len(data)))
}

func hBlockRegion(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	owner := api.DomainOS
	if ctx != nil {
		owner = ctx.enclave.ID
	}
	return fail(mon.blockRegionAs(owner, indexArg(req.Args[0])))
}
