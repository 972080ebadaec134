// Package enclaves contains the SRV64 enclave programs the examples,
// integration tests and benchmarks load: a quickstart adder, an
// AEX-resumable counter, the local-attestation sender/receiver pair
// (Fig 6), the signing enclave and attested client of the remote
// attestation protocol (Fig 7), and the side-channel victim of the
// isolation experiments (E9).
//
// All programs share one virtual layout inside a 2 MiB evrange, so a
// single leaf page table serves the private range. The shared buffer
// lives at a fixed address outside evrange; under Sanctum it resolves
// through the OS page tables, under Keystone through a MapShared
// window — the programs are identical either way, which is the paper's
// portability claim (§VII) made concrete.
package enclaves

import (
	"fmt"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// Layout fixes the virtual addresses every program uses.
type Layout struct {
	EvBase   uint64 // enclave virtual range base
	EvMask   uint64 // enclave virtual range mask
	CodeVA   uint64 // program text (R|X), up to 8 pages
	DataVA   uint64 // private data page (R|W)
	StackVA  uint64 // private stack page (R|W); SP starts at its top
	ArrayVA  uint64 // probe-array page for the side-channel victim
	SharedVA uint64 // OS shared buffer, outside evrange
}

// DefaultLayout returns the standard layout used throughout the
// repository.
func DefaultLayout() Layout {
	base := uint64(0x4000000000)
	return Layout{
		EvBase:   base,
		EvMask:   ^uint64(1<<21 - 1), // 2 MiB evrange
		CodeVA:   base,
		DataVA:   base + 0x10000,
		StackVA:  base + 0x11000,
		ArrayVA:  base + 0x12000,
		SharedVA: 0x50000000,
	}
}

// SP returns the initial stack pointer (top of the stack page).
func (l Layout) SP() uint64 { return l.StackVA + mem.PageSize }

// Registers the programs reserve for their own state (outside the
// a0..a7 ECALL window and the assembler temp x31).
const (
	rShared = 20 // shared buffer base
	rData   = 21 // private data base
	rTmp1   = 22
	rTmp2   = 23
	rTmp3   = 24
	rTmp4   = 25
	rAcc    = 26
	rIdx    = 27
)

// Shared-buffer slots (offsets into SharedVA) used by the protocol
// programs; the OS and the verifier use the same constants.
const (
	ShInput   = 0   // generic input word (adder n, phase selectors)
	ShOutput  = 8   // generic output word
	ShPeerEID = 16  // peer enclave ID for mailbox protocols
	ShCounter = 24  // live counter for the AEX demo
	ShNonce   = 32  // 32-byte verifier nonce
	ShShare   = 64  // 32-byte enclave key-agreement share (out)
	ShSig     = 96  // 64-byte attestation signature (out)
	ShPeerKA  = 160 // 32-byte remote verifier share (in)
	ShMACOut  = 192 // 32-byte session MAC (out)
)

// Private data-page offsets.
const (
	dExpected = 0   // 32-byte expected peer measurement (receiver)
	dMailBuf  = 64  // 160-byte get_mail output: measurement ‖ message
	dMsg      = 256 // 128-byte outgoing mailbox message
	dKAPriv   = 384 // 32-byte private scalar
	dKAShare  = 416 // 32-byte derived share
	dPeerKA   = 448 // 32-byte peer share copied from shared memory
	dSessKey  = 480 // 32-byte session key
	dMACMsg   = 512 // channel message to authenticate
	dMACOut   = 544 // 32-byte MAC
	dSignBuf  = 576 // signing-enclave staging: payload then signature
)

// SessionPlaintext is the message the attested client authenticates
// under the session key in the Fig 7 example (16 bytes, fixed).
var SessionPlaintext = []byte("enclave-channel!")

func ecall(p *asm.Program, call api.Call) {
	p.Li(isa.RegA7, int32(call))
	p.Ecall()
}

// exit emits exit_enclave(status register a0 already set).
func exitCall(p *asm.Program) { ecall(p, api.CallExitEnclave) }

// memcpyLoop emits a byte-copy of n bytes from the address in srcReg to
// the address in dstReg, clobbering rTmp3/rTmp4 and rIdx.
func memcpyLoop(p *asm.Program, label string, dstReg, srcReg uint8, n int32) {
	p.Li(rIdx, 0)
	p.Li(rTmp3, n)
	p.Label(label)
	p.Branch(isa.OpBEQ, rIdx, rTmp3, label+"_done")
	p.I(isa.OpADD, rTmp4, srcReg, rIdx, 0)
	p.I(isa.OpLBU, rTmp4, rTmp4, 0, 0)
	p.I(isa.OpADD, rAcc, dstReg, rIdx, 0)
	p.I(isa.OpSB, 0, rAcc, rTmp4, 0)
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J(label)
	p.Label(label + "_done")
}

// Spec assembles a program and wraps it in an enclave spec: code pages,
// a data page (with optional initial content), a stack page, and the
// probe-array page. regions and shared come from the caller (they are
// machine-dependent).
func Spec(l Layout, prog *asm.Program, dataInit []byte, regions []int, shared []os.SharedMapping) (*os.EnclaveSpec, error) {
	bin, err := prog.Assemble(l.CodeVA)
	if err != nil {
		return nil, err
	}
	if len(bin) > 8*mem.PageSize {
		return nil, fmt.Errorf("enclaves: program too large (%d bytes)", len(bin))
	}
	spec := &os.EnclaveSpec{
		EvBase:  l.EvBase,
		EvMask:  l.EvMask,
		Regions: regions,
		Shared:  shared,
	}
	for off := 0; off < len(bin); off += mem.PageSize {
		end := off + mem.PageSize
		if end > len(bin) {
			end = len(bin)
		}
		spec.Pages = append(spec.Pages, os.EnclavePage{
			VA: l.CodeVA + uint64(off), Perms: pt.R | pt.X, Data: bin[off:end],
		})
	}
	spec.Pages = append(spec.Pages,
		os.EnclavePage{VA: l.DataVA, Perms: pt.R | pt.W, Data: dataInit},
		os.EnclavePage{VA: l.StackVA, Perms: pt.R | pt.W},
		os.EnclavePage{VA: l.ArrayVA, Perms: pt.R | pt.W},
	)
	spec.Threads = []os.ThreadSpec{{EntryVA: l.CodeVA, StackVA: l.SP()}}
	return spec, nil
}

// Adder is the quickstart program: read n from the shared buffer,
// compute 1+2+…+n, write the sum back, exit with status 0x42.
func Adder(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput) // n
	p.Li(rAcc, 0)
	p.Li(rIdx, 1)
	p.Label("loop")
	p.Branch(isa.OpBLTU, rTmp1, rIdx, "done") // n < i ?
	p.I(isa.OpADD, rAcc, rAcc, rIdx, 0)
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J("loop")
	p.Label("done")
	p.I(isa.OpSD, 0, rShared, rAcc, ShOutput)
	p.Li(isa.RegA0, 0x42)
	exitCall(p)
	return p
}

// StatefulAdder is the snapshot/clone workload: it keeps a running
// total in its private data page (offset 0), adds the shared-buffer
// input to it, persists the new total back to the data page — the
// write that triggers a copy-on-write fault when this enclave is a
// clone aliasing a frozen template page — and publishes the total to
// the shared output. Two clones of one template therefore start from
// the same measured initial total and diverge privately.
func StatefulAdder(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput) // n
	p.I(isa.OpLD, rAcc, rData, 0, 0)          // running total
	p.I(isa.OpADD, rAcc, rAcc, rTmp1, 0)
	p.I(isa.OpSD, 0, rData, rAcc, 0) // private write: COW copies on a clone
	p.I(isa.OpSD, 0, rShared, rAcc, ShOutput)
	p.Li(isa.RegA0, 0x42)
	exitCall(p)
	return p
}

// Counter is the AEX demo: on a fresh entry it counts upward forever,
// publishing the count to the shared buffer; when re-entered after an
// asynchronous exit (a0 != 0 at entry) it resumes the interrupted loop
// via the monitor, preserving its registers exactly.
func Counter(l Layout) *asm.Program {
	p := asm.New()
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "fresh")
	ecall(p, api.CallResumeAEX) // does not return on success
	p.Label("fresh")
	p.Li64(rShared, l.SharedVA)
	p.Li(rAcc, 0)
	p.Label("loop")
	p.I(isa.OpADDI, rAcc, rAcc, 0, 1)
	p.I(isa.OpSD, 0, rShared, rAcc, ShCounter)
	p.J("loop")
	return p
}

// MailSender is E1 of the local attestation example (Fig 6): it sends
// the 128-byte message in its private data page (offset dMsg) to the
// peer enclave named in the shared buffer.
func MailSender(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLD, isa.RegA0, rShared, 0, ShPeerEID)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMsg)
	ecall(p, api.CallSendMail)
	// a0 already holds the monitor status; report it to the OS.
	exitCall(p)
	return p
}

// MailReceiver is E2 of the local attestation example (Fig 6). Phase 0
// (shared ShInput = 0): arm mailbox 0 for the peer in ShPeerEID.
// Phase 1: drain the mailbox, compare the monitor-stamped sender
// measurement with the expected one baked into its data page, and
// publish the verdict (1 = authentic, 2 = mismatch) to ShOutput.
func MailReceiver(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput)
	p.Branch(isa.OpBNE, rTmp1, isa.RegZero, "phase1")
	// Phase 0: accept_mail(0, peer).
	p.Li(isa.RegA0, 0)
	p.I(isa.OpLD, isa.RegA1, rShared, 0, ShPeerEID)
	ecall(p, api.CallAcceptMail)
	exitCall(p)

	p.Label("phase1")
	p.Li(isa.RegA0, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMailBuf)
	ecall(p, api.CallGetMail)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// Compare buf[0:32] (sender measurement) with expected at dExpected.
	p.Li(rIdx, 0)
	p.Li(rTmp1, 32)
	p.Label("cmp")
	p.Branch(isa.OpBEQ, rIdx, rTmp1, "ok")
	p.I(isa.OpADDI, rTmp2, rData, 0, dMailBuf)
	p.I(isa.OpADD, rTmp2, rTmp2, rIdx, 0)
	p.I(isa.OpLBU, rTmp2, rTmp2, 0, 0)
	p.I(isa.OpADDI, rTmp3, rData, 0, dExpected)
	p.I(isa.OpADD, rTmp3, rTmp3, rIdx, 0)
	p.I(isa.OpLBU, rTmp3, rTmp3, 0, 0)
	p.Branch(isa.OpBNE, rTmp2, rTmp3, "fail")
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J("cmp")
	p.Label("ok")
	p.Li(rTmp4, 1)
	p.I(isa.OpSD, 0, rShared, rTmp4, ShOutput)
	p.Li(isa.RegA0, 0)
	exitCall(p)
	p.Label("fail")
	p.Li(rTmp4, 2)
	p.I(isa.OpSD, 0, rShared, rTmp4, ShOutput)
	p.Li(isa.RegA0, 1)
	exitCall(p)
	return p
}

// SigningEnclave is ES of Fig 7. Phase 0: arm mailbox 0 for the client
// in ShPeerEID. Phase 1: drain the mailbox — the buffer then holds
// (client measurement ‖ nonce ‖ KA share) contiguously, exactly the
// evidence payload — have the monitor sign it, and mail the signature
// back to the client.
func SigningEnclave(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput)
	p.Branch(isa.OpBNE, rTmp1, isa.RegZero, "phase1")
	p.Li(isa.RegA0, 0)
	p.I(isa.OpLD, isa.RegA1, rShared, 0, ShPeerEID)
	ecall(p, api.CallAcceptMail)
	exitCall(p)

	p.Label("phase1")
	// get_mail(0, dMailBuf): buf = senderMeas(32) ‖ msg(128); the
	// client's msg is nonce(32) ‖ share(32) ‖ zeros, so buf[0:96] is
	// the attestation payload with no copying.
	p.Li(isa.RegA0, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMailBuf)
	ecall(p, api.CallGetMail)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// attest_sign(dMailBuf, 96, dSignBuf).
	p.I(isa.OpADDI, isa.RegA0, rData, 0, dMailBuf)
	p.Li(isa.RegA1, 96)
	p.I(isa.OpADDI, isa.RegA2, rData, 0, dSignBuf)
	ecall(p, api.CallAttestSign)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// send_mail(client, dSignBuf): 64-byte signature, zero padded.
	p.I(isa.OpLD, isa.RegA0, rShared, 0, ShPeerEID)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dSignBuf)
	ecall(p, api.CallSendMail)
	exitCall(p)
	p.Label("fail")
	exitCall(p)
	return p
}

// AttestedClient is E1 of Fig 7. Phase 0: draw a private scalar from
// the trusted entropy source, derive its key-agreement share, publish
// the share (public) to the shared buffer, copy the verifier nonce
// (public) into the outgoing message, arm mailbox 0 for the signing
// enclave, and mail (nonce ‖ share) to it. Phase 1: receive the
// signature, publish it, then derive the session key from the
// verifier's share and authenticate SessionPlaintext under it.
func AttestedClient(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rShared, l.SharedVA)
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput)
	p.Branch(isa.OpBNE, rTmp1, isa.RegZero, "phase1")

	// --- Phase 0 ---
	// Private scalar: 4 × get_random into dKAPriv.
	for i := int32(0); i < 4; i++ {
		ecall(p, api.CallGetRandom)
		p.I(isa.OpSD, 0, rData, isa.RegA1, dKAPriv+8*i)
	}
	// Derive the public share.
	p.I(isa.OpADDI, isa.RegA0, rData, 0, dKAPriv)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dKAShare)
	ecall(p, api.CallKADerive)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// Publish the share (it is public) for transport to the verifier.
	p.I(isa.OpADDI, rTmp1, rShared, 0, ShShare)
	p.I(isa.OpADDI, rTmp2, rData, 0, dKAShare)
	memcpyLoop(p, "cpShare", rTmp1, rTmp2, 32)
	// Outgoing message: nonce(32) ‖ share(32) at dMsg.
	p.I(isa.OpADDI, rTmp1, rData, 0, dMsg)
	p.I(isa.OpADDI, rTmp2, rShared, 0, ShNonce)
	memcpyLoop(p, "cpNonce", rTmp1, rTmp2, 32)
	p.I(isa.OpADDI, rTmp1, rData, 0, dMsg+32)
	p.I(isa.OpADDI, rTmp2, rData, 0, dKAShare)
	memcpyLoop(p, "cpShare2", rTmp1, rTmp2, 32)
	// Arm mailbox 0 for the signing enclave's reply.
	p.Li(isa.RegA0, 0)
	p.I(isa.OpLD, isa.RegA1, rShared, 0, ShPeerEID)
	ecall(p, api.CallAcceptMail)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// Mail the request to the signing enclave.
	p.I(isa.OpLD, isa.RegA0, rShared, 0, ShPeerEID)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMsg)
	ecall(p, api.CallSendMail)
	exitCall(p)

	// --- Phase 1 ---
	p.Label("phase1")
	p.Li(isa.RegA0, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMailBuf)
	ecall(p, api.CallGetMail)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	// Publish the signature: mailbox message starts at dMailBuf+32.
	p.I(isa.OpADDI, rTmp1, rShared, 0, ShSig)
	p.I(isa.OpADDI, rTmp2, rData, 0, dMailBuf+32)
	memcpyLoop(p, "cpSig", rTmp1, rTmp2, 64)
	// Copy the verifier's share into private memory, derive the
	// session key, and MAC the channel message.
	p.I(isa.OpADDI, rTmp1, rData, 0, dPeerKA)
	p.I(isa.OpADDI, rTmp2, rShared, 0, ShPeerKA)
	memcpyLoop(p, "cpPeer", rTmp1, rTmp2, 32)
	p.I(isa.OpADDI, isa.RegA0, rData, 0, dKAPriv)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dPeerKA)
	p.I(isa.OpADDI, isa.RegA2, rData, 0, dSessKey)
	ecall(p, api.CallKACombine)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	p.I(isa.OpADDI, isa.RegA0, rData, 0, dSessKey)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dMACMsg)
	p.Li(isa.RegA2, int32(len(SessionPlaintext)))
	p.I(isa.OpADDI, isa.RegA3, rData, 0, dMACOut)
	ecall(p, api.CallMAC)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "fail")
	p.I(isa.OpADDI, rTmp1, rShared, 0, ShMACOut)
	p.I(isa.OpADDI, rTmp2, rData, 0, dMACOut)
	memcpyLoop(p, "cpMAC", rTmp1, rTmp2, 32)
	p.Li(isa.RegA0, 0)
	exitCall(p)
	p.Label("fail")
	exitCall(p)
	return p
}

// ClientDataInit returns the initial data page for AttestedClient: the
// channel plaintext is baked at dMACMsg so the MAC covers private,
// measured content.
func ClientDataInit() []byte {
	data := make([]byte, dMACMsg+len(SessionPlaintext))
	copy(data[dMACMsg:], SessionPlaintext)
	return data
}

// ReceiverDataInit returns the initial data page for MailReceiver with
// the expected sender measurement baked in.
func ReceiverDataInit(expected [32]byte) []byte {
	data := make([]byte, 64)
	copy(data[dExpected:], expected[:])
	return data
}

// SenderDataInit returns the initial data page for MailSender with the
// outgoing message baked in.
func SenderDataInit(msg []byte) []byte {
	data := make([]byte, dMsg+api.MailboxSize)
	copy(data[dMsg:], msg)
	return data
}

// Victim is the side-channel victim (E9): it makes a single load whose
// cache line depends on the secret byte baked into its data page, the
// canonical secret-dependent memory access a cache-timing attacker
// tries to observe.
func Victim(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rData, l.DataVA)
	p.I(isa.OpLBU, rTmp1, rData, 0, 0)  // secret line index 0..7
	p.I(isa.OpSLLI, rTmp1, rTmp1, 0, 6) // ×64 bytes
	p.Li64(rTmp2, l.ArrayVA)
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp1, 0)
	p.I(isa.OpLD, rTmp3, rTmp2, 0, 0) // the secret-dependent access
	p.Li(isa.RegA0, 0)
	exitCall(p)
	return p
}

// VictimDataInit bakes the secret line index into the victim's data
// page.
func VictimDataInit(secret byte) []byte { return []byte{secret} }

// EcallLoop issues monitor calls (get_random) in a tight loop forever —
// the workload for measuring the trap round-trip cost (E1).
func EcallLoop(l Layout) *asm.Program {
	p := asm.New()
	p.Label("loop")
	ecall(p, api.CallGetRandom)
	p.J("loop")
	return p
}

// ExitImmediately performs a voluntary exit as its first action — the
// workload for measuring enter/exit cost (E4).
func ExitImmediately(l Layout) *asm.Program {
	p := asm.New()
	p.Li(isa.RegA0, 0)
	exitCall(p)
	return p
}

// FaultingProgram dereferences an unmapped address inside evrange: the
// monitor either delivers the fault to a registered handler or forces
// an AEX (Fig 1's fault path).
func FaultingProgram(l Layout) *asm.Program {
	p := asm.New()
	p.Li64(rTmp1, l.EvBase+0x100000) // inside evrange, never mapped
	p.I(isa.OpLD, rTmp2, rTmp1, 0, 0)
	p.Li(isa.RegA0, 0)
	exitCall(p)
	return p
}

// FaultHandlerProgram registers a fault handler, then touches an
// unmapped address; the handler publishes the fault cause and address
// to the shared buffer and exits cleanly — the enclave-managed paging
// path of Fig 1.
func FaultHandlerProgram(l Layout) *asm.Program {
	p := asm.New()
	// The handler sits at the fixed offset CodeVA+8 so its 64-bit
	// address can be materialized without label arithmetic.
	p.J("main")
	p.Label("handler") // at l.CodeVA + 8
	// a0 = cause, a1 = faulting VA (set by the monitor).
	p.Li64(rShared, l.SharedVA)
	p.I(isa.OpSD, 0, rShared, isa.RegA0, ShOutput)
	p.I(isa.OpSD, 0, rShared, isa.RegA1, ShOutput+8)
	p.Li(isa.RegA0, 7)
	exitCall(p)

	p.Label("main")
	p.Li64(isa.RegA0, l.CodeVA+8)
	p.Li64(isa.RegA1, l.SP()-256)
	ecall(p, api.CallSetFaultHandler)
	// Fault.
	p.Li64(rTmp1, l.EvBase+0x100000)
	p.I(isa.OpLD, rTmp2, rTmp1, 0, 0)
	// Unreachable if the handler exits.
	p.Li(isa.RegA0, 99)
	exitCall(p)
	return p
}

// WorkerExitStatus is the exit_enclave status Worker reports on
// completion.
const WorkerExitStatus = 0x42

// Worker is the scheduler load kernel: a preemption-tolerant compute
// loop for the multi-hart timesharing harness. On a fresh entry it
// reads an iteration count n from the shared buffer (ShInput), runs a
// register-only accumulate/mix loop — so concurrent threads of one
// enclave touch no common memory while computing — then publishes the
// accumulator to a per-thread output slot and exits with
// WorkerExitStatus. Re-entered after an AEX (a0 != 0) it resumes the
// interrupted loop through the monitor, so any number of preemptions
// leave the result unchanged.
//
// The output slot is derived from the thread's own stack page:
// ShOutput + 8*(((SP-1) >> 12) & 7). With SpecN's stack placement the
// slots of up to four threads are distinct, so no two harts ever store
// to the same shared word (which also keeps the host race detector
// quiet for what would otherwise be a benign guest-level race).
func Worker(l Layout) *asm.Program {
	p := asm.New()
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "fresh")
	ecall(p, api.CallResumeAEX) // does not return on success
	p.Label("fresh")
	p.Li64(rShared, l.SharedVA)
	p.I(isa.OpLD, rTmp1, rShared, 0, ShInput) // n
	p.Li(rAcc, 0)
	p.Li(rIdx, 0)
	p.Label("loop")
	p.Branch(isa.OpBEQ, rIdx, rTmp1, "done")
	p.I(isa.OpADD, rAcc, rAcc, rIdx, 0)
	p.I(isa.OpXORI, rAcc, rAcc, 0, 0x55)
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J("loop")
	p.Label("done")
	// slot address = shared + ShOutput + 8*(((SP-1)>>12) & 7)
	p.I(isa.OpADDI, rTmp2, isa.RegSP, 0, -1)
	p.I(isa.OpSRLI, rTmp2, rTmp2, 0, 12)
	p.I(isa.OpANDI, rTmp2, rTmp2, 0, 7)
	p.I(isa.OpSLLI, rTmp2, rTmp2, 0, 3)
	p.I(isa.OpADD, rTmp2, rShared, rTmp2, 0)
	p.I(isa.OpSD, 0, rTmp2, rAcc, ShOutput)
	p.Li(isa.RegA0, WorkerExitStatus)
	exitCall(p)
	return p
}

// --- Ring-serving workers (monitor calls 0x40–0x45, DESIGN.md §9) ---
//
// A ring server is a resumable request loop over the monitor's mailbox
// rings: park on the request ring until messages arrive, recv a batch,
// transform each payload into a response slot, send the batch to the
// response ring, park again. The programs communicate exclusively
// through rings — no shared window — so one measured template serves
// every clone: each worker discovers its own (per-clone) ring ids
// through get_field(FieldEnclaveRings), since ring ids are SM metadata
// pages a measured image cannot embed.

// RingServeBatch is the most messages a ring server drains per recv.
const RingServeBatch = 8

// Ring-server private data-page offsets.
const (
	dRingDir  = 0    // 32 bytes: FieldEnclaveRings directory (2 entries)
	dRingRecv = 64   // RingServeBatch × api.RingRecordSize recv buffer
	dRingSend = 1024 // RingServeBatch × api.RingMsgSize send buffer
	dRingKV   = 2048 // 128 × 8-byte value slots (KV server state)
)

// serverHooks are the three points where a serving variant's code
// differs from the plain ring server's; the skeleton emits everything
// else once for every variant.
type serverHooks struct {
	// setup runs right after rData is loaded, before ring discovery.
	setup func(p *asm.Program)
	// boot runs after ring discovery (rAcc = request ring, rShared =
	// response ring), before the first park.
	boot func(p *asm.Program)
	// recv emits the batch-receive ecall; a0..a2 already hold the
	// request ring, the recv buffer and RingServeBatch.
	recv func(p *asm.Program)
}

// ringHooks make the skeleton the plain ring server: no extra boot
// steps, ring_recv for the batch.
var ringHooks = serverHooks{
	setup: func(*asm.Program) {},
	boot:  func(*asm.Program) {},
	recv:  func(p *asm.Program) { ecall(p, api.CallRingRecv) },
}

// serveLoop emits the one serve skeleton every ring and bulk server
// shares: AEX resume, ring discovery, the park/recv loop, the
// per-record transform, the send loop with backpressure retry, and
// die. transform emits the per-record body with rTmp2 holding
// rData+104·idx (payload at [rTmp2 + dRingRecv + api.RingStampSize])
// and rTmp3 holding rData+64·idx (response at [rTmp3 + dRingSend]); it
// may clobber rTmp4 and a3..a6.
func serveLoop(l Layout, h serverHooks, transform func(p *asm.Program)) *asm.Program {
	p := asm.New()
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "fresh")
	ecall(p, api.CallResumeAEX) // does not return on success
	p.Label("fresh")
	p.Li64(rData, l.DataVA)
	h.setup(p)
	// Discover this worker's rings: get_field(enclave_rings) writes the
	// id ‖ role directory; the consumer entry is the request ring, the
	// producer entry the response ring.
	p.Li(isa.RegA0, int32(api.FieldEnclaveRings))
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dRingDir)
	p.Li(isa.RegA2, 32)
	ecall(p, api.CallGetField)
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "die")
	p.I(isa.OpLD, rAcc, rData, 0, dRingDir)           // entry 0 id
	p.I(isa.OpLD, rShared, rData, 0, dRingDir+16)     // entry 1 id
	p.I(isa.OpLD, rTmp4, rData, 0, dRingDir+8)        // entry 0 role
	p.Branch(isa.OpBEQ, rTmp4, isa.RegZero, "booted") // 0 = consumer: req first
	p.I(isa.OpADD, rTmp4, rAcc, isa.RegZero, 0)       // swap: rAcc=req, rShared=resp
	p.I(isa.OpADD, rAcc, rShared, isa.RegZero, 0)
	p.I(isa.OpADD, rShared, rTmp4, isa.RegZero, 0)
	p.Label("booted")
	h.boot(p)

	p.Label("serve")
	// thread_park(req ring): blocks until messages arrive. ErrRetry is
	// transient lock contention — the §V-A discipline says re-issue the
	// park; any other failure (a destroyed ring, a sibling already
	// parked) is the shutdown signal.
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	ecall(p, api.CallRingPark)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "drain")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "serve")
	p.J("die")
	p.Label("drain")
	p.I(isa.OpADD, isa.RegA0, rAcc, isa.RegZero, 0)
	p.I(isa.OpADDI, isa.RegA1, rData, 0, dRingRecv)
	p.Li(isa.RegA2, RingServeBatch)
	h.recv(p)
	// A failed recv means a sibling drained the ring (or, for bulk_recv,
	// the head message is a stray plain one): park again rather than die.
	p.Branch(isa.OpBNE, isa.RegA0, isa.RegZero, "serve")
	p.I(isa.OpADD, rTmp1, isa.RegA1, isa.RegZero, 0) // n records

	p.Li(rIdx, 0)
	p.Label("xform")
	p.Branch(isa.OpBEQ, rIdx, rTmp1, "reply")
	// rTmp2 = rData + 104·idx (record base), rTmp3 = rData + 64·idx.
	p.I(isa.OpSLLI, rTmp2, rIdx, 0, 3)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 5)
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp3, 0)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 6)
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp3, 0)
	p.I(isa.OpADD, rTmp2, rTmp2, rData, 0)
	p.I(isa.OpSLLI, rTmp3, rIdx, 0, 6)
	p.I(isa.OpADD, rTmp3, rTmp3, rData, 0)
	transform(p)
	p.I(isa.OpADDI, rIdx, rIdx, 0, 1)
	p.J("xform")

	p.Label("reply")
	// Responses are plain ring messages, for bulk servers too: a reply
	// is an application echo that need not parse as descriptors. Send
	// with the full ring-caller discipline: retry ErrRetry (transient
	// contention) and ErrInvalidState (response ring full —
	// backpressure; spinning is preemptible, the consumer will drain),
	// advance past partial transfers, and die on anything else (a
	// destroyed ring). rTmp2 = send cursor, rTmp3 = messages left.
	p.I(isa.OpADDI, rTmp2, rData, 0, dRingSend)
	p.I(isa.OpADD, rTmp3, rTmp1, isa.RegZero, 0)
	p.Label("send")
	p.Branch(isa.OpBEQ, rTmp3, isa.RegZero, "serve")
	p.I(isa.OpADD, isa.RegA0, rShared, isa.RegZero, 0)
	p.I(isa.OpADD, isa.RegA1, rTmp2, isa.RegZero, 0)
	p.I(isa.OpADD, isa.RegA2, rTmp3, isa.RegZero, 0)
	ecall(p, api.CallRingSend)
	p.Branch(isa.OpBEQ, isa.RegA0, isa.RegZero, "sent")
	p.Li(rTmp4, int32(api.ErrRetry))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "send")
	p.Li(rTmp4, int32(api.ErrInvalidState))
	p.Branch(isa.OpBEQ, isa.RegA0, rTmp4, "send")
	p.J("die")
	p.Label("sent")
	p.I(isa.OpSLLI, rTmp4, isa.RegA1, 0, 6) // sent × RingMsgSize
	p.I(isa.OpADD, rTmp2, rTmp2, rTmp4, 0)
	p.I(isa.OpSUB, rTmp3, rTmp3, isa.RegA1, 0)
	p.J("send")

	p.Label("die")
	p.Li(isa.RegA0, WorkerExitStatus)
	exitCall(p)
	return p
}

// RingEchoServer answers each request with its payload echoed and the
// first word incremented — the minimal proof the message traversed the
// enclave rather than a host shortcut.
func RingEchoServer(l Layout) *asm.Program {
	const payload = dRingRecv + api.RingStampSize
	return serveLoop(l, ringHooks, func(p *asm.Program) {
		p.I(isa.OpLD, rTmp4, rTmp2, 0, payload)
		p.I(isa.OpADDI, rTmp4, rTmp4, 0, 1)
		p.I(isa.OpSD, 0, rTmp3, rTmp4, dRingSend)
		for w := 1; w < 8; w++ {
			p.I(isa.OpLD, rTmp4, rTmp2, 0, int32(payload+8*w))
			p.I(isa.OpSD, 0, rTmp3, rTmp4, int32(dRingSend+8*w))
		}
	})
}

// RingEchoExpected computes the echo server's response for a request
// payload (zero-padded to api.RingMsgSize).
func RingEchoExpected(payload []byte) []byte {
	out := make([]byte, api.RingMsgSize)
	copy(out, payload)
	var w0 uint64
	for i := 0; i < 8; i++ {
		w0 |= uint64(out[i]) << (8 * uint(i))
	}
	w0++
	for i := 0; i < 8; i++ {
		out[i] = byte(w0 >> (8 * uint(i)))
	}
	return out
}

// Ring KV operation codes (request payload word 0).
const (
	RingOpPut = 1
	RingOpGet = 2
)

// RingKVRequest builds a KV request payload: op ‖ key ‖ value.
func RingKVRequest(op, key, value uint64) []byte {
	out := make([]byte, api.RingMsgSize)
	for i := 0; i < 8; i++ {
		out[i] = byte(op >> (8 * uint(i)))
		out[8+i] = byte(key >> (8 * uint(i)))
		out[16+i] = byte(value >> (8 * uint(i)))
	}
	return out
}

// RingKVServer is a stateful serving worker: requests are (op, key,
// value) triples; put stores value under key (128 slots, key mod 128)
// in the worker's private data page, get loads it. The response is
// value ‖ key ‖ zeros — for a put, the stored value; for a get, the
// current one (0 if never written). Worker state lives in private
// enclave memory: two clones of one template diverge through COW, each
// holding its own store.
func RingKVServer(l Layout) *asm.Program {
	const payload = dRingRecv + api.RingStampSize
	return serveLoop(l, ringHooks, func(p *asm.Program) {
		p.I(isa.OpLD, isa.RegA3, rTmp2, 0, payload)   // op
		p.I(isa.OpLD, isa.RegA4, rTmp2, 0, payload+8) // key
		p.I(isa.OpANDI, isa.RegA5, isa.RegA4, 0, 127) // slot
		p.I(isa.OpSLLI, isa.RegA5, isa.RegA5, 0, 3)
		p.I(isa.OpADD, isa.RegA5, isa.RegA5, rData, 0)
		p.Li(isa.RegA6, RingOpPut)
		p.Branch(isa.OpBNE, isa.RegA3, isa.RegA6, "kvget")
		p.I(isa.OpLD, rTmp4, rTmp2, 0, payload+16) // value
		p.I(isa.OpSD, 0, isa.RegA5, rTmp4, dRingKV)
		p.J("kvout")
		p.Label("kvget")
		p.I(isa.OpLD, rTmp4, isa.RegA5, 0, dRingKV)
		p.Label("kvout")
		p.I(isa.OpSD, 0, rTmp3, rTmp4, dRingSend)       // value
		p.I(isa.OpSD, 0, rTmp3, isa.RegA4, dRingSend+8) // key
		for w := 2; w < 8; w++ {
			p.I(isa.OpSD, 0, rTmp3, isa.RegZero, int32(dRingSend+8*w))
		}
	})
}

// WorkerExpected computes the accumulator Worker publishes for n
// iterations — the Go-side replay the harness checks results against.
func WorkerExpected(n uint64) uint64 {
	var acc uint64
	for i := uint64(0); i < n; i++ {
		acc = (acc + i) ^ 0x55
	}
	return acc
}

// WorkerSlot returns the ShOutput-relative output slot offset of the
// thread whose initial stack pointer is sp.
func WorkerSlot(sp uint64) int {
	return int(((sp - 1) >> 12 & 7) * 8)
}

// SpecN is Spec for a program run by nThreads concurrent threads (at
// most 4, so Worker output slots stay distinct). Thread 0 keeps the
// layout's stack page; each further thread gets its own stack page two
// pages above the previous (skipping the probe-array page).
func SpecN(l Layout, prog *asm.Program, dataInit []byte, regions []int, shared []os.SharedMapping, nThreads int) (*os.EnclaveSpec, error) {
	if nThreads < 1 || nThreads > 4 {
		return nil, fmt.Errorf("enclaves: %d threads outside [1,4]", nThreads)
	}
	spec, err := Spec(l, prog, dataInit, regions, shared)
	if err != nil {
		return nil, err
	}
	for i := 1; i < nThreads; i++ {
		stackVA := l.StackVA + uint64(2*i)*mem.PageSize
		spec.Pages = append(spec.Pages, os.EnclavePage{VA: stackVA, Perms: pt.R | pt.W})
		spec.Threads = append(spec.Threads, os.ThreadSpec{
			EntryVA: l.CodeVA, StackVA: stackVA + mem.PageSize,
		})
	}
	return spec, nil
}
