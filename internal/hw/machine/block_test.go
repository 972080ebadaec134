package machine

import (
	"testing"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/isa"
)

// Directed tests for the block-compilation tier (block.go): discovery
// and promotion, loop chaining, guard bails under self-modifying code,
// revalidation across generation bumps, and the disable knob. The
// broad equivalence net is TestFastSlowEquivalence plus the
// differential fuzzer in blockfuzz_test.go; these tests pin the
// engine's internal behaviour via BlockStats.

// bfEncode assembles a program into instruction words.
func bfEncode(prog []isa.Instr) []uint64 {
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	return words
}

// bfLoopWords is the canonical hot loop: load, accumulate, store,
// increment, mix, jump back — the bench kernel's shape.
func bfLoopWords() []uint64 {
	return bfEncode([]isa.Instr{
		{Op: isa.OpLD, Rd: 6, Rs1: 8, Imm: 0},
		{Op: isa.OpADD, Rd: 7, Rs1: 7, Rs2: 6},
		{Op: isa.OpSD, Rs1: 8, Rs2: 7, Imm: 8},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpXOR, Rd: 7, Rs1: 7, Rs2: 5},
		{Op: isa.OpJAL, Imm: -5 * 8},
	})
}

// bfTopTestedWords is the bulk KV copy loop's shape: a top-tested loop
// whose head branch precedes the body and whose body ends in a J back
// to the head. The body copies data page 0 into data page 1, one
// mixed word per iteration, for iters iterations, then halts.
func bfTopTestedWords(iters int32) []uint64 {
	return bfEncode([]isa.Instr{
		{Op: isa.OpLI, Rd: 6, Imm: iters * 8},        // 0: limit
		{Op: isa.OpLI, Rd: 14, Imm: mem.PageSize},    // 1: destination page offset
		{Op: isa.OpBLTU, Rs1: 5, Rs2: 6, Imm: 2 * 8}, // 2: head: → body
		{Op: isa.OpJAL, Imm: 8 * 8},                  // 3: J exit
		{Op: isa.OpADD, Rd: 7, Rs1: 8, Rs2: 5},       // 4: body
		{Op: isa.OpLD, Rd: 12, Rs1: 7, Imm: 0},
		{Op: isa.OpXOR, Rd: 12, Rs1: 12, Rs2: 5},
		{Op: isa.OpADD, Rd: 13, Rs1: 7, Rs2: 14},
		{Op: isa.OpSD, Rs1: 13, Rs2: 12, Imm: 0},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 8},
		{Op: isa.OpJAL, Imm: -8 * 8}, // 10: J head
		{Op: isa.OpHALT},             // 11: exit
	})
}

// TestBlockHotLoop: a tight loop is promoted to one block, nearly all
// instructions retire inside it, consecutive iterations chain without
// leaving the engine, and the final state matches the per-instruction
// engine exactly.
func TestBlockHotLoop(t *testing.T) {
	const steps = 8192
	m, c := bfMachine(t, IsolationNone, true, 1, bfLoopWords())
	if _, err := m.Run(0, steps); err != nil {
		t.Fatal(err)
	}
	bs := c.BlockStats()
	if bs.Compiled != 1 {
		t.Errorf("compiled %d blocks, want 1", bs.Compiled)
	}
	if frac := float64(bs.Instrs) / steps; frac < 0.9 {
		t.Errorf("only %.1f%% of instructions retired in blocks", 100*frac)
	}
	if bs.Loops == 0 {
		t.Error("loop iterations never chained inside the engine")
	}
	if bs.GuardBails != 0 {
		t.Errorf("%d guard bails in a steady-state loop, want 0", bs.GuardBails)
	}

	rm, rc := bfMachine(t, IsolationNone, false, 1, bfLoopWords())
	if _, err := rm.Run(0, steps); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs != rc.CPU.Regs || c.CPU.PC != rc.CPU.PC || c.CPU.Cycles != rc.CPU.Cycles {
		t.Errorf("block engine diverged from reference: pc %#x/%d vs %#x/%d",
			c.CPU.PC, c.CPU.Cycles, rc.CPU.PC, rc.CPU.Cycles)
	}
}

// TestBlockSelfModifyBail: a store inside a block that overwrites a
// later instruction of the same block must bail at the store's
// boundary, and the re-fetched tail must execute the new code. The
// sequence loops so the site gets hot enough to compile (a block only
// seeds from a re-entered transfer target); the patch lands on the
// second, block-executed iteration.
func TestBlockSelfModifyBail(t *testing.T) {
	patched := isa.Instr{Op: isa.OpLI, Rd: 3, Imm: 42}.Encode()
	// The store's target is computed per iteration: a scratch data word
	// for the first two (so the site can get hot and compile with a
	// clean seed — a code write kills the compile seed by design), the
	// LI's own code word from iteration 2 on. The patch therefore lands
	// mid-block, between the store's segment and the LI's.
	prog := []isa.Instr{
		{Op: isa.OpLD, Rd: 4, Rs1: 9, Imm: 0x100}, // replacement word
		{Op: isa.OpSLTIU, Rd: 15, Rs1: 5, Imm: 2}, // 1 while iteration < 2
		{Op: isa.OpMUL, Rd: 16, Rs1: 15, Rs2: 13}, // x13 = code target - data scratch
		{Op: isa.OpSUB, Rd: 17, Rs1: 14, Rs2: 16}, // x14 = code target
		{Op: isa.OpSD, Rs1: 17, Rs2: 4, Imm: 0},   // patch the LI (iterations ≥ 2)
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpLI, Rd: 3, Imm: 1}, // becomes LI x3, 42
		{Op: isa.OpBLT, Rs1: 5, Rs2: 12, Imm: -7 * 8},
		{Op: isa.OpHALT},
	}
	m, c := bfMachine(t, IsolationNone, true, 1, bfEncode(prog))
	if err := m.Mem.Store(bfCodePA+0x100, 8, patched); err != nil {
		t.Fatal(err)
	}
	codeTarget := bfCodeVA + 6*isa.InstrSize
	c.CPU.Regs[12] = 5 // iterations
	c.CPU.Regs[13] = codeTarget - bfDataVA
	c.CPU.Regs[14] = codeTarget
	m.Firmware = &skipFirmware{}
	res, err := m.Run(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if c.CPU.Regs[3] != 42 {
		t.Fatalf("x3 = %d: block executed a stale instruction past a code write", c.CPU.Regs[3])
	}
	bs := c.BlockStats()
	if bs.Compiled == 0 {
		t.Fatalf("loop never compiled: %+v", bs)
	}
	if bs.GuardBails == 0 {
		t.Errorf("self-modifying store did not bail the block: %+v", bs)
	}
}

// TestBlockChainedPassBail: a guard bail on a chained pass (not the
// first) must resume at entry + segment offset, not at entry + total
// retired — the two agree only on pass zero. The store walks down
// through the second (never-executed) code page for 15 iterations and
// only then crosses into the executing page, so the code-write bail
// fires with many completed passes already chained. Everything
// architecturally visible must match the reference interpreter.
func TestBlockChainedPassBail(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpADDI, Rd: 7, Rs1: 9, Imm: 0x1ff8}, // store cursor: last word of code page 2
		{Op: isa.OpLI, Rd: 5, Imm: 0x100},            // cursor step
		{Op: isa.OpLI, Rd: 6, Imm: 24},               // iterations
		// loop:
		{Op: isa.OpSD, Rs1: 7, Rs2: 2, Imm: 0},  // [cursor] = 0
		{Op: isa.OpSUB, Rd: 7, Rs1: 7, Rs2: 5},  // cursor -= 0x100
		{Op: isa.OpADDI, Rd: 4, Rs1: 4, Imm: 1}, // iteration++
		{Op: isa.OpBNE, Rs1: 4, Rs2: 6, Imm: -3 * 8},
		{Op: isa.OpHALT},
	}
	for _, kind := range bfKinds {
		bfCompare(t, kind, bfEncode(prog))
	}
}

// TestBlockRevalidation: a TLB flush (domain switch, shootdown) makes
// the block's guard word stale; the next hot entry must revive the
// block by revalidation, not recompilation.
func TestBlockRevalidation(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, true, 1, bfLoopWords())
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 1 {
		t.Fatalf("setup: compiled %d blocks, want 1", bs.Compiled)
	}
	c.TLB.Flush()
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	bs := c.BlockStats()
	if bs.Revalidations == 0 {
		t.Errorf("stale block was not revalidated: %+v", bs)
	}
	if bs.Compiled != 1 {
		t.Errorf("stale block was recompiled (%d compiles), want revalidation only", bs.Compiled)
	}
}

// TestBlockThreshold: a site below the heat threshold stays on the
// per-instruction path; crossing it compiles.
func TestBlockThreshold(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, true, 50, bfLoopWords())
	if _, err := m.Run(0, 6*40); err != nil { // 40 entries < 50
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 0 {
		t.Fatalf("compiled below threshold: %+v", bs)
	}
	if _, err := m.Run(0, 6*20); err != nil { // crosses 50
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 1 {
		t.Errorf("site over threshold not compiled: %+v", bs)
	}
}

// TestBlockEngineDisabled: the knob really disables the tier.
func TestBlockEngineDisabled(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, false, 1, bfLoopWords())
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs != (BlockStats{}) {
		t.Errorf("disabled engine recorded activity: %+v", bs)
	}
}

var bfKinds = []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone}

// TestBlockTopTestedLoop: block formation follows the body's J back to
// the head, so the top-tested loop compiles into ONE block (body, J,
// head branch) whose taken head branch returns to its own entry and
// chains: after the compile the loop never leaves the engine, and no
// iteration interprets its head.
func TestBlockTopTestedLoop(t *testing.T) {
	for _, kind := range bfKinds {
		bs := bfCompare(t, kind, bfTopTestedWords(256))
		if bs.Compiled != 1 {
			t.Errorf("%v: compiled %d blocks, want 1: %+v", kind, bs.Compiled, bs)
		}
		if bs.Loops == 0 {
			t.Errorf("%v: loop iterations never chained inside the engine: %+v", kind, bs)
		}
		// Each block entry that completes a pass adds one Execution
		// beyond its Loops; a single entry means the interpreted head
		// never ran between iterations.
		if entries := bs.Executions - bs.Loops; entries != 1 {
			t.Errorf("%v: block entered %d times, want 1: %+v", kind, entries, bs)
		}
	}
}

// TestBlockFollowedJumpGuardBail: a guard bail in a segment that sits
// after a followed jump resumes at that segment's own VA — which is not
// entry + retired, since the jump skipped code. A store in the
// segment after the jump patches the next instruction (from the third
// iteration on, once the block is compiled and chaining), so the guard
// fails at the following segment.
func TestBlockFollowedJumpGuardBail(t *testing.T) {
	const codeTarget = bfCodeVA + 13*isa.InstrSize
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 12, Imm: 5},                                   // 0: iterations
		{Op: isa.OpLI, Rd: 13, Imm: int32(codeTarget) - int32(bfDataVA)}, // 1: code target - data scratch
		{Op: isa.OpLI, Rd: 14, Imm: int32(codeTarget)},                   // 2: code target
		{Op: isa.OpLD, Rd: 4, Rs1: 9, Imm: 0x100},                        // 3: loop: replacement word
		{Op: isa.OpSLTIU, Rd: 15, Rs1: 5, Imm: 2},                        // 1 while iteration < 2
		{Op: isa.OpMUL, Rd: 16, Rs1: 15, Rs2: 13},
		{Op: isa.OpSUB, Rd: 17, Rs1: 14, Rs2: 16}, // store target
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpJAL, Imm: 4 * 8}, // 8: J 12
		{Op: isa.OpHALT},
		{Op: isa.OpHALT},
		{Op: isa.OpHALT},
		{Op: isa.OpSD, Rs1: 17, Rs2: 4, Imm: 0},        // 12: patch word 13 (iterations ≥ 2)
		{Op: isa.OpLI, Rd: 3, Imm: 1},                  // 13: becomes LI x3, 42
		{Op: isa.OpBLT, Rs1: 5, Rs2: 12, Imm: -11 * 8}, // 14: → loop
		{Op: isa.OpHALT},
	}
	words := bfEncode(prog)
	for len(words) <= 0x100/isa.InstrSize {
		words = append(words, isa.Instr{Op: isa.OpHALT}.Encode())
	}
	words[0x100/isa.InstrSize] = isa.Instr{Op: isa.OpLI, Rd: 3, Imm: 42}.Encode()
	for _, kind := range bfKinds {
		var x3 uint64
		bs := bfCompareScript(t, kind, words, func(m *Machine, c *Core) (RunResult, error) {
			res, err := m.Run(0, 4096)
			x3 = c.CPU.Regs[3]
			return res, err
		})
		if bs.GuardBails == 0 {
			t.Errorf("%v: the code write did not bail the block: %+v", kind, bs)
		}
		if x3 != 42 {
			t.Errorf("%v: x3 = %d: the patched instruction never ran", kind, x3)
		}
	}
}

// TestBlockFollowedJumpFallThrough: a block whose followed jump lands
// just before a system op ends without a terminal, and the pass must
// fall through to the system op's VA — the jump target's successor,
// not entry + length.
func TestBlockFollowedJumpFallThrough(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 6, Imm: 10},          // 0: iterations
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}, // 1: loop
		{Op: isa.OpJAL, Imm: 3 * 8},             // 2: J 5
		{Op: isa.OpHALT},
		{Op: isa.OpHALT},
		{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 3},      // 5
		{Op: isa.OpRDCYCLE, Rd: 20},                  // 6: system op: ends formation
		{Op: isa.OpBLT, Rs1: 5, Rs2: 6, Imm: -6 * 8}, // 7: → loop
		{Op: isa.OpHALT},
	}
	for _, kind := range bfKinds {
		bs := bfCompare(t, kind, bfEncode(prog))
		if bs.Compiled == 0 || bs.Executions == 0 {
			t.Errorf("%v: the block never ran: %+v", kind, bs)
		}
	}
}

// TestBlockNonContiguousRevalidation: a block whose instructions are
// not contiguous (the top-tested loop's body, jump and head) survives
// a core cleaning by revalidation — every word checked at its own page
// offset — rather than by recompilation.
func TestBlockNonContiguousRevalidation(t *testing.T) {
	for _, kind := range bfKinds {
		bs := bfCompareScript(t, kind, bfTopTestedWords(256), func(m *Machine, c *Core) (RunResult, error) {
			if _, err := m.Run(0, 1000); err != nil {
				return RunResult{}, err
			}
			c.ClearMicroarch()
			return m.Run(0, 4096)
		})
		if bs.Revalidations == 0 {
			t.Errorf("%v: stale block was not revalidated: %+v", kind, bs)
		}
		if bs.Compiled != 1 {
			t.Errorf("%v: stale block was recompiled (%d compiles), want revalidation only", kind, bs.Compiled)
		}
	}
}

// TestBlockJumpTargetStoreInvalidates: the head branch is a word of the
// loop's block only through the followed jump, so a store into it must
// fail the block's revalidation; the loop then runs the new head.
func TestBlockJumpTargetStoreInvalidates(t *testing.T) {
	const iters = 400
	head := isa.Instr{Op: isa.OpBLTU, Rs1: 5, Rs2: 21, Imm: 2 * 8}.Encode()
	for _, kind := range bfKinds {
		var x5 uint64
		bs := bfCompareScript(t, kind, bfTopTestedWords(256), func(m *Machine, c *Core) (RunResult, error) {
			if _, err := m.Run(0, 1000); err != nil {
				return RunResult{}, err
			}
			c.CPU.Regs[21] = iters * 8
			if err := m.Mem.Store(bfCodePA+2*isa.InstrSize, 8, head); err != nil {
				return RunResult{}, err
			}
			res, err := m.Run(0, 4096)
			x5 = c.CPU.Regs[5]
			return res, err
		})
		if bs.Invalidations == 0 {
			t.Errorf("%v: the head write did not invalidate the block: %+v", kind, bs)
		}
		if x5 != iters*8 {
			t.Errorf("%v: loop ran to %d, want %d: the patched head never ran", kind, x5, iters*8)
		}
	}
}
