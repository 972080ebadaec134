// Execution-engine throughput benchmarks (EXPERIMENTS.md E12): retired
// instructions per host-second on a tight ALU+memory loop, per platform
// kind. These measure host speed of the interpreter fast path; the
// modeled cycle counts are asserted identical to the reference path by
// TestFastSlowEquivalence in internal/hw/machine.
package sanctorum_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// throughputMachine builds a one-purpose machine of the given isolation
// kind running a paged S-mode ALU+memory loop, so the benchmark
// exercises the full hot path: TLB, page walk, L1/L2 and physical
// memory. engine selects "reference" (per-step Decode, scanning TLB
// probe, page-map access per load), "fast-noblock" (the per-instruction
// fast path with the block tier disabled — the pre-§11 engine), or
// "fast" (fast path plus trace-compiled superinstruction blocks).
// kernel selects the loop: "tight" (load, accumulate, store, increment,
// mix, jump back) or "jloop", the bulk KV copy loop's top-tested shape
// — a BLTU head before the same body, the body's J back to the head,
// and the store on a different page from the load.
func throughputMachine(b testing.TB, kind machine.IsolationKind, engine, kernel string) *machine.Machine {
	b.Helper()
	cfg := machine.DefaultConfig(kind)
	cfg.DisableFastPath = engine == "reference"
	cfg.DisableBlockEngine = engine == "fast-noblock"
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}

	// Physical pages from region 1 onward: page tables first, then code
	// and data.
	nextPPN := cfg.DRAM.Base(1) >> mem.PageBits
	alloc := func() (uint64, error) {
		p := nextPPN
		nextPPN++
		return p, nil
	}
	builder, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		b.Fatal(err)
	}

	const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
	prog := asm.New()
	switch kernel {
	case "tight":
		prog.Li64(isa.RegS0, dataVA).
			Label("loop").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			I(isa.OpXOR, isa.RegT2, isa.RegT2, isa.RegT0, 0).
			J("loop")
	case "jloop":
		// The head's limit is all-ones, so the exit is never taken.
		prog.Li64(isa.RegS0, dataVA).
			Li64(isa.RegS1, dataVA+mem.PageSize).
			Li64(isa.RegA0, ^uint64(0)).
			Label("loop").
			Branch(isa.OpBLTU, isa.RegT0, isa.RegA0, "body").
			J("done").
			Label("body").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS1, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			I(isa.OpXOR, isa.RegT2, isa.RegT2, isa.RegT0, 0).
			J("loop").
			Label("done").
			I(isa.OpHALT, 0, 0, 0, 0)
	default:
		b.Fatalf("unknown kernel %q", kernel)
	}
	bin, err := prog.Assemble(codeVA)
	if err != nil {
		b.Fatal(err)
	}

	codePPN, _ := alloc()
	if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
		b.Fatal(err)
	}
	for va := dataVA; va < dataVA+2*mem.PageSize; va += mem.PageSize {
		dataPPN, _ := alloc()
		if err := builder.Map(va, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
		b.Fatal(err)
	}

	c := m.Cores[0]
	c.Satp = builder.Root
	c.CPU.Mode = isa.PrivS
	c.CPU.PC = codeVA
	switch kind {
	case machine.IsolationSanctum:
		c.OSRegions = cfg.DRAM.Full()
	case machine.IsolationKeystone:
		if err := c.PMP.Configure(0, pmp.Entry{
			Valid: true, Base: 0, Size: m.Mem.Size(), Perm: pmp.R | pmp.W | pmp.X,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// multiCoreMachine builds an n-core Sanctum machine where every core
// runs its own copy of the tight ALU+memory loop on disjoint pages, so
// aggregate throughput measures the execution engine's multi-hart
// scaling with no guest-level sharing.
func multiCoreMachine(b *testing.B, cores int) *machine.Machine {
	b.Helper()
	cfg := machine.DefaultConfig(machine.IsolationSanctum)
	cfg.Cores = cores
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
		const codeVA, dataVA = uint64(0x10000), uint64(0x20000)
		prog := asm.New().
			Li64(isa.RegS0, dataVA).
			Label("loop").
			I(isa.OpLD, isa.RegT1, isa.RegS0, 0, 0).
			I(isa.OpADD, isa.RegT2, isa.RegT2, isa.RegT1, 0).
			I(isa.OpSD, 0, isa.RegS0, isa.RegT2, 8).
			I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1).
			I(isa.OpXOR, isa.RegT2, isa.RegT2, isa.RegT0, 0).
			J("loop")
		bin, err := prog.Assemble(codeVA)
		if err != nil {
			b.Fatal(err)
		}
		codePPN, _ := alloc()
		dataPPN, _ := alloc()
		if err := builder.Map(codeVA, codePPN<<mem.PageBits, pt.R|pt.X); err != nil {
			b.Fatal(err)
		}
		if err := builder.Map(dataVA, dataPPN<<mem.PageBits, pt.R|pt.W); err != nil {
			b.Fatal(err)
		}
		if err := m.Mem.WriteBytes(codePPN<<mem.PageBits, bin); err != nil {
			b.Fatal(err)
		}
		c := m.Cores[i]
		c.Satp = builder.Root
		c.CPU.Mode = isa.PrivS
		c.CPU.PC = codeVA
		c.OSRegions = cfg.DRAM.Full()
	}
	return m
}

// BenchmarkMultiCoreThroughput (EXPERIMENTS.md E13) reports aggregate
// retired instructions per host-second with all cores executing
// concurrently under the parallel scheduler, for 1/2/4 simulated
// cores. The hot path is lock-free per core (private TLB, L1, decode
// caches; atomic page table), so aggregate throughput scales with the
// host CPUs available to the goroutines — on a many-core host the
// 4-core aggregate approaches 4x the 1-core number, while a
// single-CPU host timeshares the harts and holds it near 1x. The
// per-core/instr-s metric exposes the concurrency machinery's overhead
// either way.
func BenchmarkMultiCoreThroughput(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			m := multiCoreMachine(b, cores)
			ids := make([]int, cores)
			for i := range ids {
				ids[i] = i
			}
			sched := machine.NewScheduler(m, machine.SchedParallel)
			const batch = 8192
			var retired atomic.Int64
			slices := make([]atomic.Int64, cores)
			b.ResetTimer()
			sched.Drive(ids, func(coreID int) bool {
				res, err := m.Run(coreID, batch)
				if err != nil {
					b.Error(err)
					return false
				}
				retired.Add(int64(res.Steps))
				return slices[coreID].Add(1) < int64(b.N)
			})
			b.StopTimer()
			perSec := float64(retired.Load()) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "instr/s")
			b.ReportMetric(perSec/float64(cores), "per-core/instr-s")
		})
	}
}

// TestBlockTierInterleavedRatio measures the block tier's contribution
// with the interleaved A/B methodology EXPERIMENTS.md E18 reports:
// short alternating slices of the block and no-block engines within
// one process, so host-speed drift between measurement windows — which
// on a shared host reaches ±30% across the tens of seconds sequential
// sub-benchmarks span — hits both engines equally and cancels from the
// ratio. Report-only (skipped with -short): a perf assertion here
// would flake under parallel CI load; the enforced form lives in
// cmd/benchjson's within-run ratio floors.
func TestBlockTierInterleavedRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement only")
	}
	for _, row := range []struct {
		kind   machine.IsolationKind
		kernel string
	}{
		{machine.IsolationNone, "tight"}, {machine.IsolationSanctum, "tight"},
		{machine.IsolationKeystone, "tight"}, {machine.IsolationSanctum, "jloop"},
	} {
		kind := row.kind
		mBlk := throughputMachine(t, kind, "fast", row.kernel)
		mNo := throughputMachine(t, kind, "fast-noblock", row.kernel)
		const slice = 8192 * 20
		var tBlk, tNo time.Duration
		for _, m := range []*machine.Machine{mBlk, mNo} { // warmup: compile + heat caches
			if _, err := m.Run(0, slice); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			s := time.Now()
			if _, err := mBlk.Run(0, slice); err != nil {
				t.Fatal(err)
			}
			tBlk += time.Since(s)
			s = time.Now()
			if _, err := mNo.Run(0, slice); err != nil {
				t.Fatal(err)
			}
			tNo += time.Since(s)
		}
		t.Logf("%-10s %-6s block %8.0f ns/8192  noblock %8.0f ns/8192  block tier %.2fx",
			kind.String(), row.kernel, float64(tBlk.Nanoseconds())/60/20, float64(tNo.Nanoseconds())/60/20,
			float64(tNo)/float64(tBlk))
	}
}

// BenchmarkThroughput reports sustained interpreter throughput
// (instr/s) on the tight loop, for each platform kind, on three
// engines that must be cycle-identical: the reference interpreter,
// the per-instruction fast path with the block tier disabled (the
// pre-§11 engine), and the full fast path with trace-compiled blocks.
// The jloop rows run the top-tested copy loop on Sanctum through the
// two fast engines. The within-run ratios are the headline speedups —
// fast-noblock/fast is the block tier's contribution, reference/fast
// the total — and are immune to host-speed drift because all rows come
// from one process; cycle-exactness is asserted by
// TestFastSlowEquivalence.
func BenchmarkThroughput(b *testing.B) {
	for _, engine := range []string{"fast", "fast-noblock", "reference"} {
		for _, kind := range []machine.IsolationKind{
			machine.IsolationNone, machine.IsolationSanctum, machine.IsolationKeystone,
		} {
			b.Run(engine+"/"+kind.String(), func(b *testing.B) {
				benchThroughput(b, throughputMachine(b, kind, engine, "tight"))
			})
		}
		if engine != "reference" {
			b.Run(engine+"/jloop", func(b *testing.B) {
				benchThroughput(b, throughputMachine(b, machine.IsolationSanctum, engine, "jloop"))
			})
		}
	}
}

// benchThroughput runs m in 8192-step batches and reports instr/s.
func benchThroughput(b *testing.B, m *machine.Machine) {
	const batch = 8192
	retired := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Run(0, batch)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reason != machine.StopMaxSteps {
			b.Fatalf("unexpected stop: %v (trap %v)", res.Reason, res.Trap)
		}
		retired += res.Steps
	}
	b.StopTimer()
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instr/s")
}
