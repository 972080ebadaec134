package baseline

import (
	"sync"
	"sync/atomic"
	"testing"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(machine.IsolationNone))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestViewsCarryNoProtection pins the baseline's defining property: the
// monitor state machine runs, but the views install no isolation — the
// control arm of the E10 comparison.
func TestViewsCarryNoProtection(t *testing.T) {
	m := newMachine(t)
	p := New()
	c := m.Cores[0]
	if err := p.ApplyEnclaveView(c, sm.EnclaveView{RootPPN: 7, EvBase: 0x1000, EvMask: ^uint64(0xFFF)}); err != nil {
		t.Fatal(err)
	}
	if c.Satp != 7 || !c.EnclaveMode {
		t.Fatalf("enclave view not recorded: %+v", c)
	}
	if c.PMP != nil {
		t.Fatal("baseline machine has a PMP unit")
	}
	if err := p.ApplyOSView(c, m.DRAM.Full()); err != nil {
		t.Fatal(err)
	}
	if c.EnclaveMode || c.Satp != 0 {
		t.Fatal("OS view left enclave state")
	}
}

func TestCleanRegionStillScrubs(t *testing.T) {
	m := newMachine(t)
	p := New()
	r := 2
	base := m.DRAM.Base(r)
	if err := m.Mem.WriteBytes(base, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	m.L2.Access(base)
	if err := p.CleanRegion(m, r); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := m.Mem.ReadBytes(base, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatal("contents survived cleaning")
	}
	if m.L2.Probe(base) {
		t.Fatal("L2 footprint survived cleaning")
	}
}

func TestShootdownRegionFlushesTLBs(t *testing.T) {
	m := newMachine(t)
	p := New()
	r := 4
	for _, c := range m.Cores {
		c.TLB.Insert(tlb.Entry{VPN: 1, PPN: m.DRAM.Base(r) >> mem.PageBits})
		c.TLB.Insert(tlb.Entry{VPN: 2, PPN: m.DRAM.Base(r+1) >> mem.PageBits})
	}
	p.ShootdownRegion(m, r)
	for i, c := range m.Cores {
		if _, hit := c.TLB.Lookup(1); hit {
			t.Fatalf("core %d kept a shot-down translation", i)
		}
		if _, hit := c.TLB.Lookup(2); !hit {
			t.Fatalf("core %d lost an unrelated translation", i)
		}
	}
}

// TestUnifiedABIOnBaseline runs the same ABI-driven enclave build on
// the insecure control backend: the dispatch surface (call table,
// domain authorization, measurement discipline) must behave identically
// even when the platform provides no physical isolation.
func TestUnifiedABIOnBaseline(t *testing.T) {
	m := newMachine(t)
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	dev := mfr.Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("baseline abi test"))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sm.New(sm.Config{
		Machine: m, Platform: New(), Identity: id,
		SMRegions: []int{m.DRAM.RegionCount - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := os.New(m, mon, 0, m.DRAM.RegionCount-2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := o.ABIVersion(); err != nil || v != api.Version {
		t.Fatalf("abi version %#x (%v), want %#x", v, err, uint64(api.Version))
	}

	evBase, evMask := uint64(0x4000000000), ^uint64(1<<21-1)
	spec := &os.EnclaveSpec{
		EvBase: evBase, EvMask: evMask, Regions: []int{3},
		Pages: []os.EnclavePage{
			{VA: evBase, Perms: pt.R | pt.X, Data: []byte{0x13}},
		},
		Threads: []os.ThreadSpec{{EntryVA: evBase, StackVA: evBase + 0x2000}},
	}
	built, err := o.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if built.Measurement != os.ExpectedMeasurement(spec) {
		t.Fatal("ABI-built measurement does not match the replayed transcript")
	}
	// Even without physical isolation the monitor's bookkeeping — the
	// security state machine the ABI fronts — must refuse API-level
	// theft: the region reads enclave-owned and cannot be re-granted.
	st, owner, err := o.SM.RegionInfo(3)
	if err != nil || st != api.RegionOwned || owner != built.EID {
		t.Fatalf("region 3 after grant: state=%v owner=%#x err=%v", st, owner, err)
	}
	if err := o.SM.GrantRegion(3, api.DomainOS); err == nil {
		t.Fatal("re-granted an enclave-owned region through the ABI")
	}
	resp := mon.Dispatch(api.Request{Caller: built.EID, Call: api.CallMyEnclaveID})
	if resp.Status != api.ErrUnauthorized {
		t.Fatalf("forged enclave caller: %v, want ErrUnauthorized", resp.Status)
	}
}

// TestCleanRegionWhileHartsWrite runs clean_region over and over on a
// region that a hart on core 0 keeps storing into through its TLB. The
// baseline enforces nothing, so neither the block nor the shootdown
// stops that hart. Meanwhile the hart on core 1 keeps storing into four
// pages of a second region, which is cleaned too, so both harts keep
// materializing pages from the recycled pool. Each hart writes only one
// word per page, at an offset the other never writes; a word of the
// other hart's in a page means a store went through a stale pointer
// into a recycled page. Under -race the run also checks that every
// hand-off of a recycled page is synchronized.
func TestCleanRegionWhileHartsWrite(t *testing.T) {
	m := newMachine(t)
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	id, err := mfr.Provision("dev", []byte("root-secret")).Boot([]byte("baseline clean race"))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sm.New(sm.Config{
		Machine: m, Platform: New(), Identity: id,
		SMRegions: []int{m.DRAM.RegionCount - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const codeRegion, r, s = 1, 2, 3
	const pattern = 0x5A5A5A5A5A5A5A5A
	nextPPN := m.DRAM.Base(codeRegion) >> mem.PageBits
	alloc := func() (uint64, error) { nextPPN++; return nextPPN - 1, nil }
	const codeVA, dataVA = uint64(0x10000), uint64(0x40000)
	// Core 0 stores the pattern at offset 8 of one page of r; core 1
	// stores a running count at offset 0 of four pages of s.
	progs := []*asm.Program{
		asm.New().
			Li64(isa.RegS0, dataVA).
			Li64(isa.RegT1, pattern).
			Label("loop").
			I(isa.OpSD, 0, isa.RegS0, isa.RegT1, 8).
			J("loop"),
		asm.New().
			Li64(isa.RegS0, dataVA).
			Li64(isa.RegS1, dataVA+mem.PageSize).
			Li64(isa.RegA0, dataVA+2*mem.PageSize).
			Li64(isa.RegA1, dataVA+3*mem.PageSize).
			Label("loop").
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT0, 0).
			I(isa.OpSD, 0, isa.RegS1, isa.RegT0, 0).
			I(isa.OpSD, 0, isa.RegA0, isa.RegT0, 0).
			I(isa.OpSD, 0, isa.RegA1, isa.RegT0, 0).
			J("loop"),
	}
	dataPages := [][]uint64{{m.DRAM.Base(r)}, nil}
	for i := uint64(0); i < 4; i++ {
		dataPages[1] = append(dataPages[1], m.DRAM.Base(s)+i*mem.PageSize)
	}
	for i, prog := range progs {
		b, err := pt.NewBuilder(m.Mem, alloc)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := prog.Assemble(codeVA)
		if err != nil {
			t.Fatal(err)
		}
		codePPN, _ := alloc()
		if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
			t.Fatal(err)
		}
		if err := b.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
			t.Fatal(err)
		}
		for j, pa := range dataPages[i] {
			if err := b.Map(dataVA+uint64(j)*mem.PageSize, pa, pt.R|pt.W); err != nil {
				t.Fatal(err)
			}
		}
		c := m.Cores[i]
		c.Satp = b.Root
		c.CPU.Mode = isa.PrivS
		c.CPU.PC = codeVA
	}

	m.SetConcurrent(true)
	var stop atomic.Bool
	// Each hart reports in after its first slice, and the rounds start
	// only once both have: otherwise, on a loaded host, all 40 rounds
	// can finish before a hart goroutine is first scheduled.
	var wg, started sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for first := true; !stop.Load(); first = false {
				_, err := m.Run(i, 2000)
				if first {
					started.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	started.Wait()
	call := func(c api.Call, args ...uint64) {
		req := api.Request{Caller: api.DomainOS, Call: c}
		copy(req.Args[:], args)
		if st := mon.Dispatch(req).Status; st != api.OK {
			t.Errorf("call %v%v: %v", c, args, st)
		}
	}
	// The word of each page that its own hart never writes.
	foreign := func(pa uint64) uint64 {
		if m.DRAM.RegionOf(pa) == r {
			return pa
		}
		return pa + 8
	}
	for round := 0; round < 40 && !t.Failed(); round++ {
		for _, region := range []uint64{r, s} {
			call(api.CallBlockRegion, region)
			call(api.CallCleanRegion, region)
			call(api.CallGrantRegion, region, api.DomainOS)
		}
		for _, pa := range append(dataPages[0], dataPages[1]...) {
			if v, _ := m.Mem.Load(foreign(pa), 8); v != 0 {
				t.Errorf("round %d: page %#x holds the other hart's word %#x", round, pa, v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for i, c := range m.Cores[:len(progs)] {
		if c.CPU.Cycles == 0 {
			t.Errorf("core %d never ran", i)
		}
	}
}
