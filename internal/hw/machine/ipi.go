package machine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Inter-processor mailboxes. The paper's monitor coordinates harts with
// per-core mailboxes and inter-processor interrupts: a hart that needs
// another hart's microarchitectural state changed (TLB shootdown on
// region re-allocation, per-core view reprogramming) posts a message
// and raises an IPI; the target acknowledges at an instruction
// boundary, where its pipeline is architecturally quiescent. This file
// is that mechanism for the simulated machine.
//
// Ownership model: a core's microarchitectural state (TLB, L1, decode
// caches, isolation registers) may only be touched while holding the
// core's runMu. Machine.Run holds it for the whole run, so a running
// core executes its own mailbox at instruction boundaries (takeInterrupt
// → drainIPIs). For a core that is not running, the poster acquires
// runMu itself and executes the request on the core's behalf — the
// simulation analogue of programming a parked hart. In deterministic
// single-goroutine execution every target is idle, so posting degrades
// to the synchronous call it used to be, byte-for-byte.
type ipiMailbox struct {
	mu     sync.Mutex
	queue  []func(*Core)
	posted uint64        // requests ever posted (under mu)
	acked  atomic.Uint64 // requests executed

	// spare is the array the last drain ran, cleared of its closures.
	// The queue and spare swap on every drain, so a warmed mailbox
	// posts without allocating. Only a drainer touches it, and every
	// drainer holds the core's runMu.
	spare []func(*Core)
}

// post appends a request and returns its sequence number.
func (b *ipiMailbox) post(fn func(*Core)) uint64 {
	b.mu.Lock()
	b.queue = append(b.queue, fn)
	b.posted++
	seq := b.posted
	b.mu.Unlock()
	return seq
}

// drainIPIs executes every queued mailbox request on the core. Caller
// holds the core's runMu (the run loop at an instruction boundary, or a
// poster that found the core idle).
func (c *Core) drainIPIs() {
	for {
		c.ipi.mu.Lock()
		c.pending.And(^pendingIPI)
		fns := c.ipi.queue
		if len(fns) == 0 {
			c.ipi.mu.Unlock()
			return
		}
		c.ipi.queue = c.ipi.spare
		c.ipi.mu.Unlock()
		for _, fn := range fns {
			fn(c)
			c.ipi.acked.Add(1)
		}
		clear(fns)
		c.ipi.spare = fns[:0]
		// A request executed above may itself have posted to this core;
		// loop so the ack sequence stays dense.
	}
}

// tryDrainIdle executes the core's mailbox if the core is not running,
// returning whether it got to run. Posters use it so that requests to
// idle cores complete synchronously.
func (c *Core) tryDrainIdle() bool {
	if !c.runMu.TryLock() {
		return false
	}
	c.drainIPIs()
	c.runMu.Unlock()
	return true
}

// ScrubRange zeroes [addr, addr+n) for a clean step (Fig 2 of the
// paper) and recycles the pages Mem.ZeroRange has parked, these and any
// earlier ones. A hart may have passed its Window check just before
// the scrub dropped a page and still be writing through it, so the
// pages are released only after a barrier: every core acknowledges an
// empty request at an instruction boundary, by which point each access
// begun before the scrub has finished and every later one re-checks the
// ZeroRange generation. The caller runs outside any hart (NoHart), as
// the platforms' CleanRegion does.
func (m *Machine) ScrubRange(addr, n uint64) error {
	if err := m.Mem.ZeroRange(addr, n); err != nil {
		return err
	}
	mark := m.Mem.Parked()
	for _, c := range m.Cores {
		m.RunOn(c.ID, NoHart, acknowledge)
	}
	m.Mem.Recycle(mark)
	return nil
}

func acknowledge(*Core) {}

// NoHart is the RunOn `from` value for callers not executing on any
// simulated hart (Go-level untrusted-OS code, boot).
const NoHart = -1

// TryAcquire claims run ownership of an idle core without blocking:
// the same mutex Machine.Run holds for its whole duration and IPI
// posters take to program idle harts. The security monitor uses it to
// make enter_enclave's core programming a failable transaction — if
// the core is running (or an IPI poster momentarily owns it), the
// claim fails and the monitor returns its retry status instead of
// blocking. Pair with Release.
func (c *Core) TryAcquire() bool { return c.runMu.TryLock() }

// Release returns run ownership taken with TryAcquire. Mailbox
// requests posted while the holder owned the core are drained by the
// next Run (or by their posters once the mutex is free).
func (c *Core) Release() { c.runMu.Unlock() }

// PostIPI delivers fn to core id's mailbox. If the core is running, fn
// executes at its next instruction boundary (the hot loop polls the
// pending word every step); if it is idle, fn executes before PostIPI
// returns, on the caller's goroutine. Fire-and-forget: use RunOn to
// wait for the acknowledgment. fn must not block on monitor locks that
// its poster may hold.
//
// Posting to the hart one is currently executing on (a trap handler
// updating its own core) is legal: the request sits in the mailbox and
// drains at the boundary immediately after the trap returns, before the
// next instruction issues.
func (m *Machine) PostIPI(id int, fn func(*Core)) {
	c := m.Cores[id]
	c.ipi.post(fn)
	c.pending.Or(pendingIPI)
	c.tryDrainIdle()
}

// RunOn delivers fn to core id's mailbox and waits until it has been
// acknowledged. from is the core ID of the posting hart (-1 when the
// caller is not executing on any simulated hart, e.g. Go-level OS
// code); a hart targeting itself executes fn inline — it is at an
// instruction boundary inside its own trap handler, which is exactly
// the acknowledgment point.
//
// The wait cannot deadlock provided fn and the poster respect the
// monitor's lock discipline: a running target acknowledges within one
// instruction, an idle target is executed by this goroutine, and a
// target that exits Run leaves its runMu free for us to take.
func (m *Machine) RunOn(id, from int, fn func(*Core)) {
	if id == from {
		fn(m.Cores[id])
		return
	}
	c := m.Cores[id]
	seq := c.ipi.post(fn)
	c.pending.Or(pendingIPI)
	for c.ipi.acked.Load() < seq {
		if !c.tryDrainIdle() {
			runtime.Gosched()
		}
	}
}
