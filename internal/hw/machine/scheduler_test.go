package machine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// loopMachine builds an n-core machine where every core runs its own
// copy of a tight S-mode ALU loop on private pages (no firmware; the
// cores never trap).
func loopMachine(t testing.TB, cores int) *Machine {
	t.Helper()
	cfg := DefaultConfig(IsolationNone)
	cfg.Cores = cores
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nextPPN := cfg.DRAM.Base(1) >> mem.PageBits
	alloc := func() (uint64, error) {
		p := nextPPN
		nextPPN++
		return p, nil
	}
	for i := 0; i < cores; i++ {
		builder, err := pt.NewBuilder(m.Mem, alloc)
		if err != nil {
			t.Fatal(err)
		}
		const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
		prog := asm.New().
			Li64(isa.RegS0, dataVA).
			Label("loop").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			J("loop")
		bin, err := prog.Assemble(codeVA)
		if err != nil {
			t.Fatal(err)
		}
		codePPN, _ := alloc()
		dataPPN, _ := alloc()
		if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
			t.Fatal(err)
		}
		if err := builder.Map(dataVA, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
			t.Fatal(err)
		}
		c := m.Cores[i]
		c.Satp = builder.Root
		c.CPU.Mode = isa.PrivS
		c.CPU.PC = codeVA
	}
	return m
}

// TestSchedulerDeterministicOrder checks that deterministic Drive
// slices the cores round-robin in core-ID order and stops each core
// exactly when its driver reports completion.
func TestSchedulerDeterministicOrder(t *testing.T) {
	m := loopMachine(t, 3)
	var order []int
	slices := map[int]int{}
	s := NewScheduler(m, SchedDeterministic)
	s.Drive([]int{0, 1, 2}, func(coreID int) bool {
		order = append(order, coreID)
		slices[coreID]++
		if _, err := m.Run(coreID, 100); err != nil {
			t.Fatal(err)
		}
		return slices[coreID] < coreID+2 // core i runs i+2 slices
	})
	want := []int{0, 1, 2, 0, 1, 2, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("slice order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slice order %v, want %v", order, want)
		}
	}
	for id, c := range m.Cores {
		wantSteps := uint64(100 * (id + 2))
		if c.CPU.Cycles == 0 {
			t.Fatalf("core %d never ran", id)
		}
		if got := c.CPU.Regs[isa.RegT0]; got > wantSteps {
			t.Fatalf("core %d retired too much: t0=%d", id, got)
		}
	}
}

// TestSchedulerParallelRunsAllCores drives four cores in parallel mode
// and requires every core to have made progress.
func TestSchedulerParallelRunsAllCores(t *testing.T) {
	m := loopMachine(t, 4)
	var total atomic.Int64
	slices := make([]atomic.Int64, 4)
	s := NewScheduler(m, SchedParallel)
	s.Drive([]int{0, 1, 2, 3}, func(coreID int) bool {
		res, err := m.Run(coreID, 5_000)
		if err != nil {
			t.Error(err)
			return false
		}
		total.Add(int64(res.Steps))
		return slices[coreID].Add(1) < 10
	})
	if got := total.Load(); got != 4*10*5_000 {
		t.Fatalf("retired %d instructions in parallel mode, want %d", got, 4*10*5_000)
	}
	for i := range m.Cores {
		if m.Cores[i].CPU.Cycles == 0 {
			t.Fatalf("core %d never ran", i)
		}
	}
}

// TestIPIIdleCoreExecutesSynchronously posts to a core that is not
// running and requires the request to have run before PostIPI returns.
func TestIPIIdleCoreExecutesSynchronously(t *testing.T) {
	m := loopMachine(t, 2)
	ran := false
	m.PostIPI(1, func(c *Core) {
		if c.ID != 1 {
			t.Errorf("IPI ran on core %d", c.ID)
		}
		ran = true
	})
	if !ran {
		t.Fatal("IPI to idle core did not execute synchronously")
	}
}

// TestRunOnIdleCoreAllocatesOnlyClosure checks the mailbox reuses its
// queue arrays: once warmed, a RunOn to an idle core allocates nothing
// beyond the closure it posts.
func TestRunOnIdleCoreAllocatesOnlyClosure(t *testing.T) {
	m := loopMachine(t, 2)
	n := 0
	post := func() { m.RunOn(1, NoHart, func(*Core) { n++ }) }
	post()
	if got := testing.AllocsPerRun(100, post); got > 1 {
		t.Fatalf("warmed RunOn allocates %.1f/op, want at most the closure", got)
	}
	if n != 102 {
		t.Fatalf("ran %d requests, want 102", n)
	}
}

// TestScrubRangeMakesRewriteAllocFree scrubs a page, which recycles it
// after a barrier across idle cores, and writes it again: once warm, the
// cycle must allocate nothing — the barrier's requests reuse the
// mailbox arrays and the write materializes the recycled page.
func TestScrubRangeMakesRewriteAllocFree(t *testing.T) {
	m := loopMachine(t, 2)
	pa := m.DRAM.Base(5)
	cycle := func() {
		m.ScrubRange(pa, mem.PageSize)
		m.Mem.Store(pa, 8, 1)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("scrub+recycle+rewrite allocates %.1f/op, want 0", got)
	}
}

// TestIPIPostedFromRequestDrains posts to a core from inside a request
// that core is executing: the new request lands in the other queue
// array and must run in the same drain, with every ack counted.
func TestIPIPostedFromRequestDrains(t *testing.T) {
	m := loopMachine(t, 2)
	var order []int
	m.RunOn(1, NoHart, func(c *Core) {
		order = append(order, 1)
		m.PostIPI(1, func(*Core) { order = append(order, 3) })
		order = append(order, 2)
	})
	m.RunOn(1, NoHart, func(*Core) { order = append(order, 4) })
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Fatalf("request order %v, want [1 2 3 4]", order)
	}
	c := m.Cores[1]
	if got := c.ipi.acked.Load(); got != 3 || c.ipi.posted != 3 {
		t.Fatalf("acked %d of %d posted, want 3 of 3", got, c.ipi.posted)
	}
}

// TestIPIRunningCoreAcknowledgesAtBoundary targets a running core with
// RunOn from another goroutine: the request must execute on the core
// between instructions (or, if the run already finished, on the idle
// core), and RunOn must not return before the acknowledgment.
func TestIPIRunningCoreAcknowledgesAtBoundary(t *testing.T) {
	m := loopMachine(t, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Long-running slice; the IPI is typically served mid-run.
		if _, err := m.Run(0, 5_000_000); err != nil {
			t.Error(err)
		}
	}()
	acked := make(chan uint64, 1)
	m.RunOn(0, NoHart, func(c *Core) {
		acked <- c.CPU.Cycles
	})
	select {
	case <-acked:
	default:
		t.Fatal("RunOn returned before the IPI was acknowledged")
	}
	<-done
}

// TestInterruptCoreCrossGoroutine latches an external interrupt from
// another goroutine; without firmware the run loop must surface it as
// an error (trap with no firmware), proving delivery at an instruction
// boundary rather than a lost or torn latch.
func TestInterruptCoreCrossGoroutine(t *testing.T) {
	m := loopMachine(t, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := m.Run(0, 1_000_000_000)
		errc <- err
	}()
	m.InterruptCore(0)
	if err := <-errc; err != ErrNoFirmware {
		t.Fatalf("run after cross-goroutine interrupt: %v, want ErrNoFirmware", err)
	}
}
