package sanctorum_test

// Guest-driven coverage of the enclave-domain calls no other test
// reaches through a real trap: my_enclave_id, accept_thread,
// release_thread, accept_region (the Fig 2 pending→owned edge),
// set_fault_handler and resume_fault. One enclave program issues each
// call from guest code on every platform, records the status (and
// value) words in the shared buffer, and the test checks the success
// path and one refusal per call plus the OS-visible effect.

import (
	"testing"

	"sanctorum"
	"sanctorum/internal/asm"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// Shared-buffer words of the program below, past the slots the
// enclaves package uses. The OS writes the two inputs before entry.
const (
	ecInTID      = 256 // thread the OS offered the enclave
	ecInRegion   = 264 // region the OS granted it (pending)
	ecOutStatus  = 272 // one status word per step, in step order
	ecOutValue   = 400 // a1 of my_enclave_id
	ecOutRuns    = 408 // fault-handler entries
	ecOutCause   = 416 // fault cause the handler saw last
	ecHandlerOff = 8   // handler sits right after the first jump
	ecExitStatus = 7   // exit status of the handler's final exit
	ecBadRegion  = 9999
)

// ecStep is one guest ECALL: the call, and each argument register as
// either an immediate or a shared-buffer word to load.
type ecStep struct {
	name string
	call api.Call
	args []ecArg
	want api.Error
}

type ecArg struct {
	shared bool // load the word at off from the shared buffer
	off    int32
	imm    uint64
}

func imm(v uint64) ecArg   { return ecArg{imm: v} }
func word(off int32) ecArg { return ecArg{shared: true, off: off} }

func enclaveCallSteps(l enclaves.Layout) []ecStep {
	handler := l.CodeVA + ecHandlerOff
	return []ecStep{
		{"my_enclave_id", api.CallMyEnclaveID, nil, api.OK},
		{"accept_thread entry outside evrange", api.CallAcceptThread,
			[]ecArg{word(ecInTID), imm(0), imm(l.SP())}, api.ErrInvalidValue},
		{"accept_thread", api.CallAcceptThread,
			[]ecArg{word(ecInTID), imm(l.CodeVA), imm(l.SP())}, api.OK},
		{"release_thread", api.CallReleaseThread, []ecArg{word(ecInTID)}, api.OK},
		{"release_thread not assigned", api.CallReleaseThread, []ecArg{word(ecInTID)}, api.ErrInvalidState},
		{"accept_region out of range", api.CallAcceptRegion, []ecArg{imm(ecBadRegion)}, api.ErrInvalidValue},
		{"accept_region", api.CallAcceptRegion, []ecArg{word(ecInRegion)}, api.OK},
		{"accept_region not pending", api.CallAcceptRegion, []ecArg{word(ecInRegion)}, api.ErrInvalidState},
		{"resume_fault outside a fault", api.CallResumeFault, nil, api.ErrInvalidState},
		{"set_fault_handler outside evrange", api.CallSetFaultHandler,
			[]ecArg{imm(0x1000), imm(l.SP())}, api.ErrInvalidValue},
		{"set_fault_handler", api.CallSetFaultHandler,
			[]ecArg{imm(handler), imm(l.SP() - 256)}, api.OK},
	}
}

// enclaveCallsProgram runs the steps, then touches an unmapped page.
// The handler counts its entries; on the first it calls resume_fault,
// which re-executes the faulting load and so faults into the handler
// again; on the second it records the cause and exits with
// ecExitStatus. A resume_fault that returns exits with its status.
func enclaveCallsProgram(l enclaves.Layout, steps []ecStep) *asm.Program {
	const rShared, rTmp = 20, 22
	p := asm.New()
	p.J("main")
	p.Label("handler") // at l.CodeVA + ecHandlerOff
	p.Li64(rShared, l.SharedVA)
	p.I(isa.OpLD, rTmp, rShared, 0, ecOutRuns)
	p.I(isa.OpADDI, rTmp, rTmp, 0, 1)
	p.I(isa.OpSD, 0, rShared, rTmp, ecOutRuns)
	p.I(isa.OpSD, 0, rShared, isa.RegA0, ecOutCause)
	p.Li(isa.RegA0, 1)
	p.Branch(isa.OpBNE, rTmp, isa.RegA0, "second")
	p.Li(isa.RegA7, int32(api.CallResumeFault))
	p.Ecall()
	p.J("exit") // resume_fault failed: exit with its status
	p.Label("second")
	p.Li(isa.RegA0, ecExitStatus)
	p.J("exit")

	p.Label("main")
	p.Li64(rShared, l.SharedVA)
	for i, s := range steps {
		for r, a := range s.args {
			if a.shared {
				p.I(isa.OpLD, isa.RegA0+uint8(r), rShared, 0, a.off)
			} else {
				p.Li64(isa.RegA0+uint8(r), a.imm)
			}
		}
		p.Li(isa.RegA7, int32(s.call))
		p.Ecall()
		p.I(isa.OpSD, 0, rShared, isa.RegA0, ecOutStatus+8*int32(i))
		if s.call == api.CallMyEnclaveID {
			p.I(isa.OpSD, 0, rShared, isa.RegA1, ecOutValue)
		}
	}
	p.Li64(rTmp, l.EvBase+0x100000) // inside evrange, never mapped
	p.I(isa.OpLD, rTmp, rTmp, 0, 0)
	p.Li(isa.RegA0, 99) // unreachable: the handler exits
	p.Label("exit")
	p.Li(isa.RegA7, int32(api.CallExitEnclave))
	p.Ecall()
	return p
}

func TestEnclaveDomainCallsFromGuest(t *testing.T) {
	for _, pk := range allKinds {
		t.Run(pk.name, func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: pk.kind})
			if err != nil {
				t.Fatal(err)
			}
			l := enclaves.DefaultLayout()
			sharedPA, err := sys.SetupShared(l.SharedVA)
			if err != nil {
				t.Fatal(err)
			}
			regions := sys.OS.FreeRegions()
			steps := enclaveCallSteps(l)
			spec, err := enclaves.Spec(l, enclaveCallsProgram(l, steps), nil, regions[:1],
				[]os.SharedMapping{{VA: l.SharedVA, PA: sharedPA}})
			if err != nil {
				t.Fatal(err)
			}
			built, err := sys.BuildEnclave(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Offer a thread and a region: both wait for the enclave.
			tid, err := sys.OS.AllocMetaPage()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.OS.SM.CreateThread(tid); err != nil {
				t.Fatal(err)
			}
			if err := sys.OS.SM.AssignThread(built.EID, tid); err != nil {
				t.Fatal(err)
			}
			region := regions[1]
			if err := sys.OS.SM.GrantRegion(region, built.EID); err != nil {
				t.Fatal(err)
			}
			if st, owner, _ := sys.OS.SM.RegionInfo(region); st != api.RegionPending || owner != built.EID {
				t.Fatalf("granted region: %v owner %#x, want pending for the enclave", st, owner)
			}
			for off, v := range map[int]uint64{ecInTID: tid, ecInRegion: uint64(region)} {
				if err := sys.SharedWriteWord(sharedPA, off, v); err != nil {
					t.Fatal(err)
				}
			}

			res, err := sys.Enter(0, built.EID, built.TIDs[0], 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reason.String() != "return-to-os" {
				t.Fatalf("stop reason: %+v", res)
			}
			if got := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); got != ecExitStatus {
				t.Fatalf("exit status %d, want %d (resume_fault did not re-run the fault?)", got, ecExitStatus)
			}
			read := func(off int) uint64 {
				v, err := sys.SharedReadWord(sharedPA, off)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			for i, s := range steps {
				if st := api.Error(read(ecOutStatus + 8*i)); st != s.want {
					t.Errorf("%s: %v, want %v", s.name, st, s.want)
				}
			}
			if id := read(ecOutValue); id != built.EID {
				t.Errorf("my_enclave_id = %#x, want %#x", id, built.EID)
			}
			if runs := read(ecOutRuns); runs != 2 {
				t.Errorf("fault handler ran %d times, want 2 (one resume_fault)", runs)
			}
			if cause := isa.Cause(read(ecOutCause)); !cause.IsPageFault() {
				t.Errorf("handler saw cause %v, want a page fault", cause)
			}
			// The OS sees each effect: the region is the enclave's, and
			// the released thread is available again (so deletable).
			if st, owner, _ := sys.OS.SM.RegionInfo(region); st != api.RegionOwned || owner != built.EID {
				t.Errorf("accepted region: %v owner %#x, want owned by the enclave", st, owner)
			}
			if err := sys.OS.SM.DeleteThread(tid); err != nil {
				t.Errorf("delete released thread: %v", err)
			}
		})
	}
}
