package sm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

// mockPlatform is a no-isolation platform for white-box monitor tests;
// the real backends are exercised by internal/integration.
type mockPlatform struct {
	events     []string // "shootdown r" and "clean r", in call order
	enterCalls int
}

func (p *mockPlatform) Kind() machine.IsolationKind { return machine.IsolationNone }
func (p *mockPlatform) ApplyOSView(c *machine.Core, b dram.Bitmap) error {
	c.OSRegions = b
	c.EnclaveMode = false
	return nil
}
func (p *mockPlatform) ApplyEnclaveView(c *machine.Core, v EnclaveView) error {
	p.enterCalls++
	c.EnclaveMode = true
	c.ESatp = v.RootPPN
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	return nil
}
func (p *mockPlatform) RefreshOSRegions(c *machine.Core, b dram.Bitmap) error {
	c.OSRegions = b
	return nil
}
func (p *mockPlatform) CleanRegion(m *machine.Machine, r int) error {
	p.events = append(p.events, fmt.Sprint("clean ", r))
	return m.Mem.ZeroRange(m.DRAM.Base(r), m.DRAM.RegionSize())
}
func (p *mockPlatform) ShootdownRegion(m *machine.Machine, r int) {
	p.events = append(p.events, fmt.Sprint("shootdown ", r))
}

type fixture struct {
	m    *machine.Machine
	mon  *Monitor
	plat *mockPlatform
	meta uint64 // base of the metadata region
}

const (
	testEvBase = uint64(0x4000000000)
	testEvMask = ^uint64(1<<30 - 1)
)

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cfg := machine.DefaultConfig(machine.IsolationNone)
	cfg.DRAM = dram.Layout{RegionShift: 16, RegionCount: 64}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	dev := mfr.Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("sanctorum test image"))
	if err != nil {
		t.Fatal(err)
	}
	plat := &mockPlatform{}
	mon, err := New(Config{
		Machine:   m,
		Platform:  plat,
		Identity:  id,
		SMRegions: []int{63},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Region 62 becomes the metadata region.
	if st := mon.Dispatch(api.OSRequest(api.CallGrantRegion, 62, api.DomainSM)).Status; st != api.OK {
		t.Fatalf("grant metadata region: %v", st)
	}
	return &fixture{m: m, mon: mon, plat: plat, meta: m.DRAM.Base(62)}
}

func (f *fixture) metaPage(i int) uint64 { return f.meta + uint64(i)*mem.PageSize }

// EnclaveInfo exposes an enclave's state and measurement to white-box
// tests directly, without an OS-memory staging buffer. The ABI path for
// the same information is api.CallEnclaveStatus; this helper lives in a
// test file so it stays out of the monitor image.
func (mon *Monitor) EnclaveInfo(eid uint64) (EnclaveState, [32]byte, api.Error) {
	e, st := mon.lookupEnclave(eid)
	if st != api.OK {
		return 0, [32]byte{}, st
	}
	defer e.mu.Unlock()
	return e.State, e.Measurement, api.OK
}

// ABI-path call helpers: the white-box tests drive the same Dispatch
// surface the OS and the adversary battery use. The signatures mirror
// the pre-ABI method surface to keep the tests readable.
func (f *fixture) call(c api.Call, args ...uint64) api.Error {
	return f.mon.Dispatch(api.OSRequest(c, args...)).Status
}

func (f *fixture) CreateEnclave(eid, evBase, evMask uint64) api.Error {
	return f.call(api.CallCreateEnclave, eid, evBase, evMask)
}

func (f *fixture) AllocatePageTable(eid, va uint64, level int) api.Error {
	return f.call(api.CallAllocPageTable, eid, va, uint64(level))
}

func (f *fixture) LoadPage(eid, va, srcPA, perms uint64) api.Error {
	return f.call(api.CallLoadPage, eid, va, srcPA, perms)
}

func (f *fixture) MapShared(eid, va, pa uint64) api.Error {
	return f.call(api.CallMapShared, eid, va, pa)
}

func (f *fixture) InitEnclave(eid uint64) api.Error   { return f.call(api.CallInitEnclave, eid) }
func (f *fixture) DeleteEnclave(eid uint64) api.Error { return f.call(api.CallDeleteEnclave, eid) }

func (f *fixture) LoadThread(eid, tid, entryPC, entrySP uint64) api.Error {
	return f.call(api.CallLoadThread, eid, tid, entryPC, entrySP)
}

func (f *fixture) CreateThread(tid uint64) api.Error { return f.call(api.CallCreateThread, tid) }

func (f *fixture) AssignThread(eid, tid uint64) api.Error {
	return f.call(api.CallAssignThread, eid, tid)
}

func (f *fixture) UnassignThread(tid uint64) api.Error { return f.call(api.CallUnassignThread, tid) }
func (f *fixture) DeleteThread(tid uint64) api.Error   { return f.call(api.CallDeleteThread, tid) }

func (f *fixture) EnterEnclave(coreID int, eid, tid uint64) api.Error {
	return f.call(api.CallEnterEnclave, uint64(coreID), eid, tid)
}

func (f *fixture) RegionInfo(r int) (RegionState, uint64, api.Error) {
	resp := f.mon.Dispatch(api.OSRequest(api.CallRegionInfo, uint64(r)))
	return RegionState(resp.Values[0]), resp.Values[1], resp.Status
}

func (f *fixture) GrantRegion(r int, newOwner uint64) api.Error {
	return f.call(api.CallGrantRegion, uint64(r), newOwner)
}

func (f *fixture) BlockRegion(r int) api.Error { return f.call(api.CallBlockRegion, uint64(r)) }
func (f *fixture) CleanRegion(r int) api.Error { return f.call(api.CallCleanRegion, uint64(r)) }

func (f *fixture) SnapshotEnclave(eid, snapID uint64) api.Error {
	return f.call(api.CallSnapshotEnclave, eid, snapID)
}

func (f *fixture) CloneEnclave(eid, snapID, tidBase, sharedPA uint64) api.Error {
	return f.call(api.CallCloneEnclave, eid, snapID, tidBase, sharedPA)
}

func (f *fixture) ReleaseSnapshot(snapID uint64) api.Error {
	return f.call(api.CallReleaseSnapshot, snapID)
}

// createLoading creates a loading enclave with one granted region.
func (f *fixture) createLoading(t testing.TB, slot int, region int) uint64 {
	t.Helper()
	eid := f.metaPage(slot)
	if st := f.CreateEnclave(eid, testEvBase, testEvMask); st != api.OK {
		t.Fatalf("create: %v", st)
	}
	if st := f.GrantRegion(region, eid); st != api.OK {
		t.Fatalf("grant: %v", st)
	}
	return eid
}

// loadMinimal gives the enclave page tables, one code page, one thread.
func (f *fixture) loadMinimal(t testing.TB, eid uint64, slot int) uint64 {
	t.Helper()
	for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
		if st := f.AllocatePageTable(eid, alloc[0], int(alloc[1])); st != api.OK {
			t.Fatalf("alloc table level %d: %v", alloc[1], st)
		}
	}
	src := uint64(0x1000) // region 0 belongs to the OS
	if st := f.LoadPage(eid, testEvBase, src, pt.R|pt.X); st != api.OK {
		t.Fatalf("load page: %v", st)
	}
	tid := f.metaPage(slot)
	if st := f.LoadThread(eid, tid, testEvBase, testEvBase+0x800); st != api.OK {
		t.Fatalf("load thread: %v", st)
	}
	return tid
}

// --- Region state machine (E2, Fig 2) ---

func TestRegionInitialOwnership(t *testing.T) {
	f := newFixture(t)
	st, owner, _ := f.RegionInfo(0)
	if st != RegionOwned || owner != api.DomainOS {
		t.Fatalf("region 0: %v/%#x", st, owner)
	}
	st, owner, _ = f.RegionInfo(63)
	if st != RegionOwned || owner != api.DomainSM {
		t.Fatalf("SM region: %v/%#x", st, owner)
	}
}

func TestRegionBlockCleanCycle(t *testing.T) {
	f := newFixture(t)
	f.m.Mem.Store(f.m.DRAM.Base(5)+64, 8, 0x5EC12E7)
	if st := f.BlockRegion(5); st != api.OK {
		t.Fatalf("block: %v", st)
	}
	if st, _, _ := f.RegionInfo(5); st != RegionBlocked {
		t.Fatalf("state after block: %v", st)
	}
	// Blocked regions cannot be granted or re-blocked.
	if st := f.GrantRegion(5, api.DomainSM); st != api.ErrInvalidState {
		t.Fatalf("grant blocked: %v", st)
	}
	if st := f.BlockRegion(5); st != api.ErrInvalidState {
		t.Fatalf("double block: %v", st)
	}
	if st := f.CleanRegion(5); st != api.OK {
		t.Fatalf("clean: %v", st)
	}
	// block → shootdown → clean: no translation into the region is
	// left when the scrub runs.
	if got := fmt.Sprint(f.plat.events); got != "[shootdown 5 clean 5]" {
		t.Fatalf("platform calls %s, want the shootdown before the clean", got)
	}
	if st, _, _ := f.RegionInfo(5); st != RegionAvailable {
		t.Fatalf("state after clean: %v", st)
	}
	if v, _ := f.m.Mem.Load(f.m.DRAM.Base(5)+64, 8); v != 0 {
		t.Fatal("clean did not scrub memory")
	}
	// Available → grant back to OS.
	if st := f.GrantRegion(5, api.DomainOS); st != api.OK {
		t.Fatalf("re-grant: %v", st)
	}
}

func TestRegionIllegalTransitions(t *testing.T) {
	f := newFixture(t)
	if st := f.CleanRegion(7); st != api.ErrInvalidState {
		t.Errorf("clean owned region: %v", st)
	}
	if st := f.BlockRegion(63); st != api.ErrUnauthorized {
		t.Errorf("OS blocking SM region: %v", st)
	}
	if st := f.GrantRegion(63, api.DomainOS); st != api.ErrUnauthorized {
		t.Errorf("OS stealing SM region: %v", st)
	}
	if st := f.GrantRegion(-1, api.DomainOS); st != api.ErrInvalidValue {
		t.Errorf("negative region: %v", st)
	}
	if st := f.GrantRegion(64, api.DomainOS); st != api.ErrInvalidValue {
		t.Errorf("out-of-range region: %v", st)
	}
	if st := f.GrantRegion(3, 0xDEAD000); st != api.ErrInvalidValue {
		t.Errorf("grant to nonexistent enclave: %v", st)
	}
}

func TestGrantToLoadingEnclaveFrozenAfterAllocation(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	if st := f.AllocatePageTable(eid, 0, 2); st != api.OK {
		t.Fatalf("root alloc: %v", st)
	}
	// After the first allocation the page list is frozen.
	if st := f.GrantRegion(11, eid); st != api.ErrInvalidState {
		t.Fatalf("late grant: %v", st)
	}
}

// --- Enclave lifecycle (E3, Fig 3) ---

func TestEnclaveLifecycleHappyPath(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	tid := f.loadMinimal(t, eid, 1)
	if st := f.InitEnclave(eid); st != api.OK {
		t.Fatalf("init: %v", st)
	}
	state, meas, _ := f.mon.EnclaveInfo(eid)
	if state != EnclaveInitialized {
		t.Fatalf("state: %v", state)
	}
	if meas == ([32]byte{}) {
		t.Fatal("empty measurement")
	}
	if st := f.DeleteEnclave(eid); st != api.OK {
		t.Fatalf("delete: %v", st)
	}
	// Its region is blocked now.
	if st, _, _ := f.RegionInfo(10); st != RegionBlocked {
		t.Fatalf("region after delete: %v", st)
	}
	// The thread reverted to available and can be deleted.
	if st := f.DeleteThread(tid); st != api.OK {
		t.Fatalf("delete thread: %v", st)
	}
}

func TestEnclaveLifecycleIllegalEdges(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	// Init without page tables.
	if st := f.InitEnclave(eid); st != api.ErrInvalidState {
		t.Fatalf("init without root: %v", st)
	}
	f.loadMinimal(t, eid, 1)
	if st := f.InitEnclave(eid); st != api.OK {
		t.Fatal("init failed")
	}
	// No loading ops after init.
	if st := f.LoadPage(eid, testEvBase+0x1000, 0x1000, pt.R); st != api.ErrInvalidState {
		t.Fatalf("load after init: %v", st)
	}
	if st := f.AllocatePageTable(eid, testEvBase, 0); st != api.ErrInvalidState {
		t.Fatalf("table after init: %v", st)
	}
	if st := f.InitEnclave(eid); st != api.ErrInvalidState {
		t.Fatalf("double init: %v", st)
	}
	if st := f.LoadThread(eid, f.metaPage(2), testEvBase, 0); st != api.ErrInvalidState {
		t.Fatalf("load thread after init: %v", st)
	}
}

func TestCreateEnclaveValidation(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name           string
		eid            uint64
		evBase, evMask uint64
	}{
		{"unaligned eid", f.metaPage(0) + 4, testEvBase, testEvMask},
		{"eid outside metadata region", 0x1000, testEvBase, testEvMask},
		{"zero mask", f.metaPage(0), testEvBase, 0},
		{"non-contiguous mask", f.metaPage(0), 0, ^uint64(0x0F0F)},
		{"mask finer than a page", f.metaPage(0), 0, ^uint64(0xFF)},
		{"unaligned base", f.metaPage(0), testEvBase | 0x1000, testEvMask},
	}
	for _, c := range cases {
		if st := f.CreateEnclave(c.eid, c.evBase, c.evMask); st != api.ErrInvalidValue {
			t.Errorf("%s: %v", c.name, st)
		}
	}
	// Duplicate eid.
	if st := f.CreateEnclave(f.metaPage(0), testEvBase, testEvMask); st != api.OK {
		t.Fatal("valid create failed")
	}
	if st := f.CreateEnclave(f.metaPage(0), testEvBase, testEvMask); st != api.ErrInvalidValue {
		t.Errorf("duplicate eid: %v", st)
	}
}

func TestLoadPageValidation(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
		f.AllocatePageTable(eid, alloc[0], int(alloc[1]))
	}
	if st := f.LoadPage(eid, testEvBase|4, 0x1000, pt.R); st != api.ErrInvalidValue {
		t.Errorf("unaligned va: %v", st)
	}
	if st := f.LoadPage(eid, 0x123000, 0x1000, pt.R); st != api.ErrInvalidValue {
		t.Errorf("va outside evrange: %v", st)
	}
	if st := f.LoadPage(eid, testEvBase, 0x1000, 0); st != api.ErrInvalidValue {
		t.Errorf("empty perms: %v", st)
	}
	if st := f.LoadPage(eid, testEvBase, 0x1000, pt.U); st != api.ErrInvalidValue {
		t.Errorf("non-rwx perms bits: %v", st)
	}
	// Source in SM memory must be rejected.
	if st := f.LoadPage(eid, testEvBase, f.meta, pt.R); st != api.ErrInvalidValue {
		t.Errorf("source in SM metadata region: %v", st)
	}
	// Source in the enclave's own (granted) region is no longer OS memory.
	if st := f.LoadPage(eid, testEvBase, f.m.DRAM.Base(10), pt.R); st != api.ErrInvalidValue {
		t.Errorf("source in enclave region: %v", st)
	}
	if st := f.LoadPage(eid, testEvBase, 0x1000, pt.R); st != api.OK {
		t.Fatalf("valid load failed: %v", st)
	}
	// Aliasing the same VA is forbidden.
	if st := f.LoadPage(eid, testEvBase, 0x1000, pt.R); st != api.ErrInvalidValue {
		t.Errorf("alias load: %v", st)
	}
	// Page tables after data are forbidden (§VI-A).
	if st := f.AllocatePageTable(eid, testEvBase+(1<<21), 0); st != api.ErrInvalidState {
		t.Errorf("table after data: %v", st)
	}
}

func TestPageTableTopDownOrder(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	// Level 0 before its parents must fail.
	if st := f.AllocatePageTable(eid, testEvBase, 0); st != api.ErrInvalidState {
		t.Fatalf("orphan leaf table: %v", st)
	}
	if st := f.AllocatePageTable(eid, 0, 2); st != api.OK {
		t.Fatal("root")
	}
	if st := f.AllocatePageTable(eid, 0, 2); st != api.ErrInvalidValue {
		t.Fatalf("double root: %v", st)
	}
	if st := f.AllocatePageTable(eid, testEvBase, 0); st != api.ErrInvalidState {
		t.Fatalf("leaf before mid: %v", st)
	}
	if st := f.AllocatePageTable(eid, testEvBase, 1); st != api.OK {
		t.Fatal("mid")
	}
	if st := f.AllocatePageTable(eid, testEvBase, 1); st != api.ErrInvalidValue {
		t.Fatalf("duplicate mid: %v", st)
	}
	if st := f.AllocatePageTable(eid, testEvBase, 0); st != api.OK {
		t.Fatal("leaf")
	}
}

// --- Measurement (E3/E6 foundations, §VI-A) ---

func TestMeasurementIndependentOfPlacement(t *testing.T) {
	f := newFixture(t)
	content := bytes.Repeat([]byte{7}, 64)
	build := func(slot, region int) [32]byte {
		eid := f.createLoading(t, slot, region)
		for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
			f.AllocatePageTable(eid, alloc[0], int(alloc[1]))
		}
		src := uint64(0x2000)
		f.m.Mem.WriteBytes(src, content)
		if st := f.LoadPage(eid, testEvBase, src, pt.R|pt.X); st != api.OK {
			t.Fatalf("load: %v", st)
		}
		f.LoadThread(eid, f.metaPage(slot+1), testEvBase, testEvBase+0x800)
		if st := f.InitEnclave(eid); st != api.OK {
			t.Fatalf("init: %v", st)
		}
		_, meas, _ := f.mon.EnclaveInfo(eid)
		return meas
	}
	m1 := build(0, 10)
	m2 := build(2, 20) // same layout, different eid + physical region
	if m1 != m2 {
		t.Fatal("measurement depends on physical placement")
	}
}

func TestMeasurementSensitiveToContentAndLayout(t *testing.T) {
	f := newFixture(t)
	build := func(slot, region int, content byte, perms uint64, entry uint64) [32]byte {
		eid := f.createLoading(t, slot, region)
		for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
			f.AllocatePageTable(eid, alloc[0], int(alloc[1]))
		}
		src := uint64(0x2000 + uint64(slot)*0x1000)
		f.m.Mem.WriteBytes(src, bytes.Repeat([]byte{content}, 32))
		f.LoadPage(eid, testEvBase, src, perms)
		f.LoadThread(eid, f.metaPage(slot+1), entry, 0)
		f.InitEnclave(eid)
		_, meas, _ := f.mon.EnclaveInfo(eid)
		return meas
	}
	base := build(0, 10, 1, pt.R|pt.X, testEvBase)
	if base == build(2, 11, 2, pt.R|pt.X, testEvBase) {
		t.Error("content change not reflected")
	}
	if base == build(4, 12, 1, pt.R|pt.W|pt.X, testEvBase) {
		t.Error("permission change not reflected")
	}
	if base == build(6, 13, 1, pt.R|pt.X, testEvBase+0x100) {
		t.Error("entry point change not reflected")
	}
}

func TestMeasurementTranscriptUnit(t *testing.T) {
	a, b := NewMeasurement(), NewMeasurement()
	a.ExtendCreate(1, 2)
	b.ExtendCreate(1, 2)
	a.ExtendPage(0x1000, pt.R, make([]byte, 4096))
	b.ExtendPage(0x1000, pt.R, make([]byte, 4096))
	if a.Finalize() != b.Finalize() {
		t.Fatal("identical transcripts disagree")
	}
	c := NewMeasurement()
	c.ExtendCreate(1, 2)
	c.ExtendPageTable(0x1000, 0) // different op with similar operands
	c.ExtendPage(0x1000, pt.R, make([]byte, 4096))
	if a.Value() == c.Finalize() {
		t.Fatal("op codes do not separate transcript records")
	}
}

// --- Thread state machine (E4, Fig 4) ---

func TestThreadStateMachine(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	f.InitEnclave(eid)
	e := f.mon.enclaves[eid]

	tid := f.metaPage(3)
	if st := f.CreateThread(tid); st != api.OK {
		t.Fatalf("create thread: %v", st)
	}
	// Accept before assign must fail.
	if st := f.mon.acceptThread(e, tid, testEvBase, 0); st != api.ErrInvalidState {
		t.Fatalf("accept unoffered: %v", st)
	}
	if st := f.AssignThread(eid, tid); st != api.OK {
		t.Fatalf("assign: %v", st)
	}
	// Assigning again must fail (offered, not available).
	if st := f.AssignThread(eid, tid); st != api.ErrInvalidState {
		t.Fatalf("double assign: %v", st)
	}
	// Enclave accepts with an entry point inside evrange.
	if st := f.mon.acceptThread(e, tid, testEvBase+0x100, testEvBase+0x900); st != api.OK {
		t.Fatalf("accept: %v", st)
	}
	// Accepting an entry outside evrange must fail for a fresh offer.
	tid2 := f.metaPage(4)
	f.CreateThread(tid2)
	f.AssignThread(eid, tid2)
	if st := f.mon.acceptThread(e, tid2, 0x1234000, 0); st != api.ErrInvalidValue {
		t.Fatalf("accept with foreign entry: %v", st)
	}
	// Release and delete.
	if st := f.mon.releaseThread(e, tid); st != api.OK {
		t.Fatalf("release: %v", st)
	}
	if st := f.DeleteThread(tid); st != api.OK {
		t.Fatalf("delete: %v", st)
	}
	// Deleting an assigned (measured) thread must fail.
	var measuredTID uint64
	for id := range e.Threads {
		measuredTID = id
	}
	if st := f.DeleteThread(measuredTID); st != api.ErrInvalidState {
		t.Fatalf("delete assigned thread: %v", st)
	}
	// Unassign scrubs and frees it.
	if st := f.UnassignThread(measuredTID); st != api.OK {
		t.Fatalf("unassign: %v", st)
	}
	if st := f.DeleteThread(measuredTID); st != api.OK {
		t.Fatalf("delete after unassign: %v", st)
	}
}

func TestEnterEnclaveValidation(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	tid := f.loadMinimal(t, eid, 1)
	// Not initialized yet.
	if st := f.EnterEnclave(0, eid, tid); st != api.ErrInvalidState {
		t.Fatalf("enter loading enclave: %v", st)
	}
	f.InitEnclave(eid)
	if st := f.EnterEnclave(5, eid, tid); st != api.ErrInvalidValue {
		t.Fatalf("bad core: %v", st)
	}
	if st := f.EnterEnclave(0, eid, 0xBAD); st != api.ErrInvalidValue {
		t.Fatalf("bad tid: %v", st)
	}
	if st := f.EnterEnclave(0, eid, tid); st != api.OK {
		t.Fatalf("enter: %v", st)
	}
	// Same thread cannot be entered twice.
	if st := f.EnterEnclave(1, eid, tid); st != api.ErrInvalidState {
		t.Fatalf("double enter: %v", st)
	}
	// Core is busy.
	if st := f.DeleteEnclave(eid); st != api.ErrInvalidState {
		t.Fatalf("delete with running thread: %v", st)
	}
	// The core state now belongs to the enclave domain.
	if !f.m.Cores[0].EnclaveMode {
		t.Fatal("core not in enclave mode after enter")
	}
	// Stop it via the monitor's internal path (as ExitEnclave would).
	f.mon.stopThread(0, 7, false)
	if f.m.Cores[0].EnclaveMode {
		t.Fatal("core still in enclave mode after stop")
	}
	if f.m.Cores[0].CPU.Reg(10) != 7 {
		t.Fatal("exit value not delivered")
	}
	if st := f.DeleteEnclave(eid); st != api.OK {
		t.Fatalf("delete after stop: %v", st)
	}
}

// --- Mailboxes (E5, Fig 5) ---

func TestMailboxStateMachine(t *testing.T) {
	f := newFixture(t)
	eidA := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eidA, 1)
	f.InitEnclave(eidA)
	a := f.mon.enclaves[eidA]

	eidB := f.createLoading(t, 2, 11)
	f.loadMinimal(t, eidB, 3)
	f.InitEnclave(eidB)
	b := f.mon.enclaves[eidB]

	msg := make([]byte, api.MailboxSize)
	copy(msg, "hello from B")

	// Unsolicited send is refused (DoS protection).
	if st := f.mon.deliverMail(eidB, b.Measurement, eidA, msg); st != api.ErrInvalidState {
		t.Fatalf("unsolicited send: %v", st)
	}
	// Accept from the wrong sender does not help.
	if st := f.mon.acceptMail(a, 0, 0xDEAD000); st != api.OK {
		t.Fatalf("accept: %v", st)
	}
	if st := f.mon.deliverMail(eidB, b.Measurement, eidA, msg); st != api.ErrInvalidState {
		t.Fatalf("send to mismatched accept: %v", st)
	}
	// Proper accept/send/get round trip.
	if st := f.mon.acceptMail(a, 1, eidB); st != api.OK {
		t.Fatalf("accept: %v", st)
	}
	if st := f.mon.deliverMail(eidB, b.Measurement, eidA, msg); st != api.OK {
		t.Fatalf("send: %v", st)
	}
	got, senderMeas, st := f.mon.getMail(a, 1)
	if st != api.OK {
		t.Fatalf("get: %v", st)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted")
	}
	if senderMeas != b.Measurement {
		t.Fatal("sender measurement not stamped by the monitor")
	}
	// The mailbox drained back to empty.
	if _, _, st := f.mon.getMail(a, 1); st != api.ErrInvalidState {
		t.Fatalf("double get: %v", st)
	}
	// OS mail carries the zero measurement.
	f.mon.acceptMail(a, 0, api.DomainOS)
	if st := f.mon.SendMailFromOS(eidA, []byte("os ping")); st != api.OK {
		t.Fatalf("os send: %v", st)
	}
	_, senderMeas, _ = f.mon.getMail(a, 0)
	if senderMeas != ([32]byte{}) {
		t.Fatal("OS mail forged a measurement")
	}
}

func TestMailboxBounds(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	f.InitEnclave(eid)
	e := f.mon.enclaves[eid]
	if st := f.mon.acceptMail(e, -1, 0); st != api.ErrInvalidValue {
		t.Errorf("negative index: %v", st)
	}
	if st := f.mon.acceptMail(e, api.MailboxesPerEnclave, 0); st != api.ErrInvalidValue {
		t.Errorf("index past end: %v", st)
	}
	if st := f.mon.SendMailFromOS(eid, make([]byte, api.MailboxSize+1)); st != api.ErrInvalidValue {
		t.Errorf("oversized message: %v", st)
	}
	if st := f.mon.deliverMail(api.DomainOS, [32]byte{}, 0xBAD, make([]byte, api.MailboxSize)); st != api.ErrInvalidValue {
		t.Errorf("unknown recipient: %v", st)
	}
}

// --- Fields and attestation plumbing ---

func TestGetFieldOS(t *testing.T) {
	f := newFixture(t)
	meas, st := f.mon.GetField(api.FieldSMMeasurement)
	if st != api.OK || len(meas) != 32 {
		t.Fatalf("measurement: %v (%d bytes)", st, len(meas))
	}
	if !bytes.Equal(meas, f.mon.Identity().Measurement[:]) {
		t.Fatal("wrong measurement returned")
	}
	pk, st := f.mon.GetField(api.FieldSMPublicKey)
	if st != api.OK || len(pk) != 32 {
		t.Fatalf("pubkey: %v", st)
	}
	chain, st := f.mon.GetField(api.FieldCertChain)
	if st != api.OK || len(chain) == 0 {
		t.Fatalf("chain: %v", st)
	}
	if _, st := f.mon.GetField(api.FieldEnclaveMeasurement); st != api.ErrUnauthorized {
		t.Fatalf("enclave field for OS: %v", st)
	}
	if _, st := f.mon.GetField(api.Field(99)); st != api.ErrInvalidValue {
		t.Fatalf("unknown field: %v", st)
	}
}

func TestAttestSignRestrictedToSigningEnclave(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	f.InitEnclave(eid)
	e := f.mon.enclaves[eid]
	// No signing enclave configured in this fixture.
	if _, st := f.mon.attestSign(e, testEvBase, 32); st != api.ErrNotSupported {
		t.Fatalf("sign with no config: %v", st)
	}
	// Configure some other measurement: still unauthorized.
	f.mon.signingMeasurement = [32]byte{1, 2, 3}
	if _, st := f.mon.attestSign(e, testEvBase, 32); st != api.ErrUnauthorized {
		t.Fatalf("sign from non-signing enclave: %v", st)
	}
	// Authorized, but length bounds still apply.
	f.mon.signingMeasurement = e.Measurement
	if _, st := f.mon.attestSign(e, testEvBase, 0); st != api.ErrInvalidValue {
		t.Fatalf("zero length: %v", st)
	}
	if _, st := f.mon.attestSign(e, testEvBase, maxSignInput+1); st != api.ErrInvalidValue {
		t.Fatalf("oversized: %v", st)
	}
	sig, st := f.mon.attestSign(e, testEvBase, 32)
	if st != api.OK || len(sig) != 64 {
		t.Fatalf("sign: %v (%d bytes)", st, len(sig))
	}
}

// --- Concurrency (E11, §V-A transaction semantics) ---

func TestConcurrentAPITransactions(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	f.InitEnclave(eid)

	const workers = 8
	var wg sync.WaitGroup
	var concurrent, ok, other int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := f.BlockRegion(30)
				if st == api.OK {
					for f.CleanRegion(30) != api.OK {
					}
					for f.GrantRegion(30, api.DomainOS) != api.OK {
					}
				}
				mu.Lock()
				switch st {
				case api.ErrConcurrentCall:
					concurrent++
				case api.OK:
					ok++
				default:
					other++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no transaction ever succeeded")
	}
	// The region must end in a sane state.
	st, owner, errc := f.RegionInfo(30)
	if errc != api.OK || st != RegionOwned || owner != api.DomainOS {
		t.Fatalf("final region state: %v/%v/%#x", errc, st, owner)
	}
	t.Logf("ok=%d concurrent=%d invalid-state=%d", ok, concurrent, other)
}

// Property: any sequence of block/clean/grant calls keeps each region in
// a legal state and never gives one region two owners.
func TestRegionStateMachineProperty(t *testing.T) {
	f := newFixture(t)
	step := func(action uint8, region uint8) bool {
		r := int(region) % 8 // stay in OS-owned low regions
		switch action % 3 {
		case 0:
			f.BlockRegion(r)
		case 1:
			f.CleanRegion(r)
		case 2:
			f.GrantRegion(r, api.DomainOS)
		}
		st, owner, errc := f.RegionInfo(r)
		if errc != api.OK {
			return false
		}
		switch st {
		case RegionOwned, RegionPending:
			return owner == api.DomainOS || owner == api.DomainSM || owner >= 0x1000
		case RegionBlocked, RegionAvailable:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
