// Package sanctum implements the MIT Sanctum processor backend of the
// security monitor (paper §VII-A): memory is isolated as fixed-size
// DRAM regions whose cache footprints are disjoint in the page-colored
// LLC, enclave virtual ranges are translated by a private page walk,
// and region re-allocation triggers TLB shootdowns under the page-walk
// invariant.
package sanctum

import (
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/sm"
)

// Platform is the Sanctum isolation backend.
type Platform struct{}

var _ sm.Platform = Platform{}

// New returns the Sanctum platform adapter.
func New() Platform { return Platform{} }

// Kind implements sm.Platform.
func (Platform) Kind() machine.IsolationKind { return machine.IsolationSanctum }

// ApplyOSView programs a core for untrusted execution: enclave
// translation state cleared, OS region bitmap installed. The OS manages
// its own page-table root (Satp) — Sanctum only constrains which
// physical regions any translation may reach.
func (Platform) ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error {
	c.EnclaveMode = false
	c.ESatp = 0
	c.EvBase, c.EvMask = 0, 0
	c.EncRegions = 0
	c.OSRegions = osRegions
	return nil
}

// ApplyEnclaveView programs a core to run an enclave: the private page
// walk root (ESatp) serves evrange, the enclave's region bitmap bounds
// it, and accesses outside evrange continue through the OS root against
// the OS bitmap (shared memory, §V-C).
func (Platform) ApplyEnclaveView(c *machine.Core, v sm.EnclaveView) error {
	c.EnclaveMode = true
	c.ESatp = v.RootPPN
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	c.EncRegions = v.Regions
	c.OSRegions = v.OSRegions
	return nil
}

// RefreshOSRegions updates the OS bitmap without disturbing the rest of
// the core state.
func (Platform) RefreshOSRegions(c *machine.Core, osRegions dram.Bitmap) error {
	c.OSRegions = osRegions
	return nil
}

// CleanRegion zeroes a region's memory and flushes its footprint from
// the shared LLC and every private L1, so the next owner observes
// neither data nor cache-tag state from the previous one (Fig 2:
// clean(resource)). The per-core L1 flushes are delivered through each
// core's IPI mailbox: a running hart performs its own flush at an
// instruction boundary, an idle hart's flush executes synchronously on
// this goroutine. The call returns only after every hart acknowledged.
func (Platform) CleanRegion(m *machine.Machine, r int) error {
	base := m.DRAM.Base(r)
	size := m.DRAM.RegionSize()
	if err := m.ScrubRange(base, size); err != nil {
		return err
	}
	// The page-colored LLC gives region r its own set group, so only
	// that partition can hold r's lines.
	l2Line := m.L2.Config().LineBits
	m.L2.FlushPartitionIf(r, func(lineAddr uint64) bool {
		return m.DRAM.RegionOf(lineAddr<<l2Line) == r
	})
	for _, c := range m.Cores {
		m.RunOn(c.ID, machine.NoHart, func(c *machine.Core) {
			l1Line := c.L1.Config().LineBits
			c.L1.FlushIf(func(lineAddr uint64) bool {
				return m.DRAM.RegionOf(lineAddr<<l1Line) == r
			})
		})
	}
	return nil
}

// ShootdownRegion removes all TLB translations targeting region r on
// every core (the page-walk invariant of §VII-A requires this whenever
// a region changes protection domain). Each core's flush travels as an
// inter-processor interrupt acknowledged at an instruction boundary;
// the call returns once all cores have acknowledged, which is when the
// paper's invariant is re-established machine-wide.
func (Platform) ShootdownRegion(m *machine.Machine, r int) {
	layout := m.DRAM
	for _, c := range m.Cores {
		m.RunOn(c.ID, machine.NoHart, func(c *machine.Core) {
			c.TLB.FlushIf(func(e tlb.Entry) bool {
				return layout.RegionOf(e.PPN<<mem.PageBits) == r
			})
		})
	}
}
