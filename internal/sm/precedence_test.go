package sm

// Refusal precedence of the message calls (ring_send, ring_recv,
// bulk_send, bulk_recv): each case below commits two faults at once,
// from an OS caller and from an enclave caller, and pins which refusal
// wins. Guardian's orderliness view is the contract: a refused call
// returns the same status, in the same order of checks, on every
// caller domain, and changes nothing — not the monitor state snapshot,
// not a ring's depth, not a grant's in-flight count.

import (
	"testing"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// precWorld is one caller's view of a fresh monitor holding an
// OS↔OS ring and grant and an enclave↔enclave ring and grant. "own"
// objects name the caller as both endpoints; "foreign" ones do not
// name it at all.
type precWorld struct {
	f   *fixture
	ctx *callContext // nil for the OS caller
	eid uint64

	ring, foreignRing, grant, foreignGrant uint64

	// Caller-domain addresses: buf holds a valid descriptor message
	// followed by an all-zero (invalid) one; out is writable; bad is
	// neither readable nor writable by the caller.
	buf, out, bad uint64
}

// unknownSlot is a free metadata page: a well-formed name no object
// has.
const unknownSlot = 8

func newPrecWorld(t *testing.T, enclaveCaller bool) *precWorld {
	t.Helper()
	f := newFixture(t)
	w := &precWorld{f: f}
	sg := api.EncodeBulkDescs([2]uint64{0, 4096}, [2]uint64{8192, 64})

	// The enclave: one code page and one R|W data page whose first
	// message is sg and second all zero.
	w.eid = f.createLoading(t, 0, 10)
	for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
		if st := f.AllocatePageTable(w.eid, alloc[0], int(alloc[1])); st != api.OK {
			t.Fatalf("alloc table: %v", st)
		}
	}
	src := f.m.DRAM.Base(1)
	if err := f.m.Mem.WriteBytes(src, sg[:]); err != nil {
		t.Fatal(err)
	}
	if st := f.LoadPage(w.eid, testEvBase, src+mem.PageSize, pt.R|pt.X); st != api.OK {
		t.Fatalf("load code: %v", st)
	}
	if st := f.LoadPage(w.eid, testEvBase+mem.PageSize, src, pt.R|pt.W); st != api.OK {
		t.Fatalf("load data: %v", st)
	}
	if st := f.LoadThread(w.eid, f.metaPage(1), testEvBase, testEvBase+0x800); st != api.OK {
		t.Fatalf("load thread: %v", st)
	}
	if st := f.InitEnclave(w.eid); st != api.OK {
		t.Fatalf("init: %v", st)
	}

	osRing, encRing := f.metaPage(12), f.metaPage(13)
	osGrant, encGrant := f.metaPage(14), f.metaPage(15)
	for _, c := range [][4]uint64{{osRing, api.DomainOS}, {encRing, w.eid}} {
		if st := f.call(api.CallRingCreate, c[0], c[1], c[1], 2); st != api.OK {
			t.Fatalf("ring_create: %v", st)
		}
	}
	for i, c := range [][2]uint64{{osGrant, api.DomainOS}, {encGrant, w.eid}} {
		if st := f.call(api.CallBulkGrant, c[0], f.m.DRAM.Base(2+i), 4, c[1], c[1]); st != api.OK {
			t.Fatalf("bulk_grant: %v", st)
		}
	}
	if enclaveCaller {
		f.mon.objMu.RLock()
		e := f.mon.enclaves[w.eid]
		f.mon.objMu.RUnlock()
		w.ctx = &callContext{core: f.m.Cores[0], enclave: e, thread: &Thread{}}
		w.ring, w.foreignRing, w.grant, w.foreignGrant = encRing, osRing, encGrant, osGrant
		w.buf, w.out, w.bad = testEvBase+mem.PageSize, testEvBase+mem.PageSize+0x800, testEvBase+0x100000
	} else {
		w.ring, w.foreignRing, w.grant, w.foreignGrant = osRing, encRing, osGrant, encGrant
		w.buf, w.out, w.bad = src, src+0x800, f.meta
	}
	return w
}

// call issues one request as the world's caller: host-side Dispatch
// for the OS, the trap path's dispatch with a live context for the
// enclave.
func (w *precWorld) call(c api.Call, args ...uint64) api.Error {
	if w.ctx == nil {
		return w.f.mon.Dispatch(api.OSRequest(c, args...)).Status
	}
	req := api.Request{Caller: w.eid, Call: c}
	copy(req.Args[:], args)
	return w.f.mon.dispatch(req, w.ctx).Status
}

// counts is what StateSnapshot does not show of the message plane:
// every ring's depth and every grant's in-flight count.
func (w *precWorld) counts() map[uint64]int64 {
	mon := w.f.mon
	mon.objMu.RLock()
	defer mon.objMu.RUnlock()
	out := make(map[uint64]int64)
	for id, r := range mon.rings {
		out[id] = int64(r.count)
	}
	for id, g := range mon.grants {
		out[id] = g.inflight.Load()
	}
	return out
}

func (w *precWorld) lockRing(id uint64) func() {
	w.f.mon.objMu.RLock()
	r := w.f.mon.rings[id]
	w.f.mon.objMu.RUnlock()
	r.mu.Lock()
	return r.mu.Unlock
}

func TestMessageRefusalPrecedence(t *testing.T) {
	type prep func(t *testing.T, w *precWorld) (undo func())
	must := func(c api.Call, args func(w *precWorld) []uint64) prep {
		return func(t *testing.T, w *precWorld) func() {
			if st := w.call(c, args(w)...); st != api.OK {
				t.Fatalf("prep call %#x: %v", uint64(c), st)
			}
			return nil
		}
	}
	oneFree := must(api.CallRingSend, func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 1} })
	full := must(api.CallRingSend, func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 2} })
	sgHead := must(api.CallBulkSend, func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 1, w.grant} })
	locked := func(t *testing.T, w *precWorld) func() { return w.lockRing(w.ring) }
	lockedForeign := func(t *testing.T, w *precWorld) func() { return w.lockRing(w.foreignRing) }

	unknown := func(w *precWorld) uint64 { return w.f.metaPage(unknownSlot) }
	cases := []struct {
		name string
		call api.Call
		prep prep
		args func(w *precWorld) []uint64
		want api.Error
	}{
		// Bad count + unknown ring: the count is checked first.
		{"ring_send bad count + unknown ring", api.CallRingSend, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.buf, 0} }, api.ErrInvalidValue},
		{"ring_recv bad count + unknown ring", api.CallRingRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.out, api.RingMaxBatch + 1} }, api.ErrInvalidValue},
		{"bulk_send bad count + unknown ring", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.buf, 0, w.grant} }, api.ErrInvalidValue},
		{"bulk_recv bad count + unknown ring", api.CallBulkRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.out, 0, w.grant} }, api.ErrInvalidValue},
		// Unknown grant + unknown ring.
		{"bulk_send unknown grant + unknown ring", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.buf, 1, unknown(w)} }, api.ErrInvalidValue},
		{"bulk_recv unknown grant + unknown ring", api.CallBulkRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{unknown(w), w.out, 1, unknown(w)} }, api.ErrInvalidValue},
		// Unknown grant + a ring the caller may not use: the grant is
		// looked up before anything touches the ring.
		{"bulk_send unknown grant + wrong producer", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.buf, 1, unknown(w)} }, api.ErrInvalidValue},
		// Non-endpoint + wrong producer/consumer.
		{"ring_send wrong producer + unreadable source", api.CallRingSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.bad, 1} }, api.ErrInvalidValue},
		{"ring_recv wrong consumer + empty ring", api.CallRingRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.out, 1} }, api.ErrUnauthorized},
		{"bulk_send non-endpoint + wrong producer", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.buf, 1, w.foreignGrant} }, api.ErrUnauthorized},
		{"bulk_send non-endpoint + bad descriptor", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf + api.RingMsgSize, 1, w.foreignGrant} }, api.ErrUnauthorized},
		{"bulk_send unreadable source + non-endpoint", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1, w.foreignGrant} }, api.ErrInvalidValue},
		{"bulk_send endpoint but wrong producer", api.CallBulkSend, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.buf, 1, w.grant} }, api.ErrUnauthorized},
		{"bulk_recv non-endpoint + wrong consumer", api.CallBulkRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.out, 1, w.foreignGrant} }, api.ErrUnauthorized},
		{"bulk_recv non-endpoint + empty ring", api.CallBulkRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 1, w.foreignGrant} }, api.ErrUnauthorized},
		// Empty ring + unwritable destination: emptiness is checked
		// before the copy-out.
		{"ring_recv empty ring + unwritable destination", api.CallRingRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1} }, api.ErrInvalidState},
		{"bulk_recv empty ring + unwritable destination", api.CallBulkRecv, nil,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1, w.grant} }, api.ErrInvalidState},
		// Descriptor head on a plain recv (and a plain head on a bulk
		// recv), with an unwritable destination: the head check runs
		// before the copy-out, and nothing is consumed.
		{"ring_recv descriptor head + unwritable destination", api.CallRingRecv, sgHead,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1} }, api.ErrInvalidValue},
		{"ring_recv descriptor head + wrong consumer", api.CallRingRecv, sgHead,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.out, 1} }, api.ErrUnauthorized},
		{"ring_recv descriptor head", api.CallRingRecv, sgHead,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 8} }, api.ErrInvalidValue},
		{"bulk_recv plain head + unwritable destination", api.CallBulkRecv, oneFree,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1, w.grant} }, api.ErrInvalidValue},
		{"bulk_recv descriptor head of another grant", api.CallBulkRecv, sgHead,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 1, w.foreignGrant} }, api.ErrUnauthorized},
		{"bulk_recv unwritable destination", api.CallBulkRecv, sgHead,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1, w.grant} }, api.ErrInvalidValue},
		// Full ring + bad descriptor (or unreadable source): the batch
		// is staged and validated before the ring transaction.
		{"ring_send full ring + unreadable source", api.CallRingSend, full,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1} }, api.ErrInvalidValue},
		{"bulk_send full ring + bad descriptor", api.CallBulkSend, full,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf + api.RingMsgSize, 1, w.grant} }, api.ErrInvalidValue},
		{"bulk_send full ring", api.CallBulkSend, full,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 1, w.grant} }, api.ErrInvalidState},
		// A bad descriptor in a message beyond the ring's free space:
		// one slot free, message 0 valid, message 1 not — the whole
		// batch is refused, not cut to the one message that fits.
		{"bulk_send bad descriptor beyond free space", api.CallBulkSend, oneFree,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 2, w.grant} }, api.ErrInvalidValue},
		// Lock contention + a second fault.
		{"ring_send contention + unreadable source", api.CallRingSend, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.bad, 1} }, api.ErrInvalidValue},
		{"ring_send contention + wrong producer", api.CallRingSend, lockedForeign,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.buf, 1} }, api.ErrRetry},
		{"ring_recv contention + wrong consumer", api.CallRingRecv, lockedForeign,
			func(w *precWorld) []uint64 { return []uint64{w.foreignRing, w.out, 1} }, api.ErrRetry},
		{"ring_recv contention + bad count", api.CallRingRecv, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 0} }, api.ErrInvalidValue},
		{"bulk_send contention + bad descriptor", api.CallBulkSend, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf + api.RingMsgSize, 1, w.grant} }, api.ErrInvalidValue},
		{"bulk_send contention", api.CallBulkSend, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.buf, 1, w.grant} }, api.ErrRetry},
		{"bulk_recv contention + non-endpoint", api.CallBulkRecv, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 1, w.foreignGrant} }, api.ErrUnauthorized},
		{"bulk_recv contention + unknown grant", api.CallBulkRecv, locked,
			func(w *precWorld) []uint64 { return []uint64{w.ring, w.out, 1, unknown(w)} }, api.ErrInvalidValue},
	}
	for _, caller := range []string{"os", "enclave"} {
		for _, c := range cases {
			t.Run(caller+"/"+c.name, func(t *testing.T) {
				w := newPrecWorld(t, caller == "enclave")
				if c.prep != nil {
					if undo := c.prep(t, w); undo != nil {
						defer undo()
					}
				}
				before, beforeCounts := snapshot(w.f.mon), w.counts()
				if st := w.call(c.call, c.args(w)...); st != c.want {
					t.Errorf("status %v, want %v", st, c.want)
				}
				if !snapshot(w.f.mon).equal(before) {
					t.Errorf("refused call changed monitor state:\n%s", before.Diff(snapshot(w.f.mon).StateSnapshot))
				}
				for id, n := range w.counts() {
					if n != beforeCounts[id] {
						t.Errorf("object %#x: depth/in-flight %d, was %d", id, n, beforeCounts[id])
					}
				}
				if w.ctx != nil && w.ctx.transferred {
					t.Error("refused call transferred control")
				}
			})
		}
	}
}
