package sanctum

import (
	"testing"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(machine.IsolationSanctum))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApplyViewsProgramCoreState(t *testing.T) {
	m := newMachine(t)
	p := New()
	c := m.Cores[0]

	osSet := m.DRAM.Full().Clear(7)
	if err := p.ApplyOSView(c, osSet); err != nil {
		t.Fatal(err)
	}
	if c.EnclaveMode || c.ESatp != 0 || c.EvMask != 0 || c.EncRegions != 0 {
		t.Fatalf("OS view left enclave state: %+v", c)
	}
	if c.OSRegions != osSet {
		t.Fatalf("OS regions %#x, want %#x", c.OSRegions, osSet)
	}

	view := sm.EnclaveView{
		RootPPN:   42,
		EvBase:    0x4000000000,
		EvMask:    ^uint64(1<<21 - 1),
		Regions:   m.DRAM.Full().Clear(0) & 0xF0,
		OSRegions: osSet,
	}
	if err := p.ApplyEnclaveView(c, view); err != nil {
		t.Fatal(err)
	}
	if !c.EnclaveMode || c.ESatp != 42 || c.EvBase != view.EvBase ||
		c.EncRegions != view.Regions || c.OSRegions != osSet {
		t.Fatalf("enclave view not programmed: %+v", c)
	}

	refreshed := osSet.Clear(3)
	if err := p.RefreshOSRegions(c, refreshed); err != nil {
		t.Fatal(err)
	}
	if c.OSRegions != refreshed || !c.EnclaveMode {
		t.Fatal("refresh disturbed the enclave view")
	}
}

func TestCleanRegionScrubsMemoryAndCaches(t *testing.T) {
	m := newMachine(t)
	p := New()
	r := 3
	base := m.DRAM.Base(r)
	if err := m.Mem.WriteBytes(base+100, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	m.L2.Access(base + 100)
	m.Cores[0].L1.Access(base + 100)
	m.Cores[1].L1.Access(base + 100)
	// Lines of the neighbouring regions, and of the region whose L2
	// partition is scanned first, must survive the clean.
	others := []uint64{m.DRAM.Base(0) + 64, m.DRAM.Base(r-1) + 100, m.DRAM.Base(r+1) + 100}
	for _, pa := range others {
		m.L2.Access(pa)
		m.Cores[0].L1.Access(pa)
	}
	live := m.L2.Live()

	if err := p.CleanRegion(m, r); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	if err := m.Mem.ReadBytes(base+100, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("region contents survived cleaning: %x", b)
	}
	if m.L2.Probe(base + 100) {
		t.Fatal("L2 line survived cleaning")
	}
	if got := m.L2.Live(); got != live-1 {
		t.Fatalf("L2 live lines %d after cleaning, want %d", got, live-1)
	}
	for _, pa := range others {
		if !m.L2.Probe(pa) || !m.Cores[0].L1.Probe(pa) {
			t.Fatalf("cleaning region %d dropped line %#x of region %d", r, pa, m.DRAM.RegionOf(pa))
		}
	}
	for i, c := range m.Cores {
		if c.L1.Probe(base + 100) {
			t.Fatalf("core %d L1 line survived cleaning", i)
		}
	}
}

func TestShootdownRegionFlushesAllTLBs(t *testing.T) {
	m := newMachine(t)
	p := New()
	r := 5
	inside := m.DRAM.Base(r) >> mem.PageBits
	outside := m.DRAM.Base(r+1) >> mem.PageBits
	for _, c := range m.Cores {
		c.TLB.Insert(tlb.Entry{VPN: 0x100, PPN: inside})
		c.TLB.Insert(tlb.Entry{VPN: 0x200, PPN: outside})
	}
	p.ShootdownRegion(m, r)
	for i, c := range m.Cores {
		if _, hit := c.TLB.Lookup(0x100); hit {
			t.Fatalf("core %d kept a translation into the shot-down region", i)
		}
		if _, hit := c.TLB.Lookup(0x200); !hit {
			t.Fatalf("core %d lost an unrelated translation", i)
		}
	}
}

// TestUnifiedABIOnSanctum drives the full enclave-build sequence over
// the monitor's unified call ABI — batched submissions through the
// smcall client — on the Sanctum backend, and checks the dispatch
// layer's per-domain authorization holds with region isolation active.
func TestUnifiedABIOnSanctum(t *testing.T) {
	m := newMachine(t)
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	dev := mfr.Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("sanctum abi test"))
	if err != nil {
		t.Fatal(err)
	}
	smRegion := m.DRAM.RegionCount - 1
	mon, err := sm.New(sm.Config{
		Machine: m, Platform: New(), Identity: id, SMRegions: []int{smRegion},
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
			{VA: evBase + 0x1000, Perms: pt.R | pt.W, Data: []byte("data")},
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
	// The granted region left the OS domain on this backend: the
	// monitor reports it enclave-owned and the per-core Sanctum view
	// lost it.
	st, owner, err := o.SM.RegionInfo(3)
	if err != nil || st != api.RegionOwned || owner != built.EID {
		t.Fatalf("region 3 after grant: state=%v owner=%#x err=%v", st, owner, err)
	}
	if m.Cores[0].OSRegions.Has(3) {
		t.Fatal("core 0 OS view still contains the enclave's region")
	}
	if err := o.WriteOwned(m.DRAM.Base(3), []byte{1}); err == nil {
		t.Fatal("OS wrote into the enclave-owned region")
	}
	// The host cannot speak for the enclave through the same surface.
	resp := mon.Dispatch(api.Request{Caller: built.EID, Call: api.CallMyEnclaveID})
	if resp.Status != api.ErrUnauthorized {
		t.Fatalf("forged enclave caller: %v, want ErrUnauthorized", resp.Status)
	}
}
