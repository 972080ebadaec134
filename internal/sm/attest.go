package sm

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/binary"

	"sanctorum/internal/crypto/kdf"
	"sanctorum/internal/sm/api"
)

// maxSignInput bounds attestation signing requests.
const maxSignInput = 1024

// GetField returns public monitor metadata to the untrusted OS (§VI-C:
// the SM stores its certificates and exposes them via a public API).
func (mon *Monitor) GetField(f api.Field) ([]byte, api.Error) {
	return mon.fieldBytes(f, nil)
}

// fieldBytes serves get_field for both OS and enclave callers.
func (mon *Monitor) fieldBytes(f api.Field, caller *Enclave) ([]byte, api.Error) {
	switch f {
	case api.FieldSMMeasurement:
		return append([]byte(nil), mon.id.Measurement[:]...), api.OK
	case api.FieldSMPublicKey:
		return append([]byte(nil), mon.id.AttestPub...), api.OK
	case api.FieldCertChain:
		return mon.id.Chain.Marshal(), api.OK
	case api.FieldEnclaveMeasurement:
		if caller == nil {
			return nil, api.ErrUnauthorized
		}
		return append([]byte(nil), caller.Measurement[:]...), api.OK
	case api.FieldEnclaveIdentity:
		// measurement[32] ‖ eid[8] ‖ origin[8]: the full attestation
		// identity. A clone shares its template's measurement but keeps
		// a per-clone enclave ID, and origin=1 marks the measurement as
		// inherited through a snapshot fork rather than measured over
		// this enclave's own load sequence (DESIGN.md §8).
		if caller == nil {
			return nil, api.ErrUnauthorized
		}
		out := make([]byte, 48)
		copy(out, caller.Measurement[:])
		binary.LittleEndian.PutUint64(out[32:], caller.ID)
		if caller.CloneOf != 0 {
			binary.LittleEndian.PutUint64(out[40:], 1)
		}
		return out, api.OK
	case api.FieldEnclaveRings, api.FieldEnclaveGrants:
		// Ring id[8] ‖ role[8] per ring, or grant id[8] ‖ role[8] ‖
		// byte size[8] per grant, the caller is an endpoint of, in
		// creation order — how a cloned worker, whose measured image
		// cannot embed per-clone names, discovers its own rings and the
		// shared buffer it should bulk_map.
		if caller == nil {
			return nil, api.ErrUnauthorized
		}
		return mon.pairBytes(caller.ID, f == api.FieldEnclaveGrants), api.OK
	default:
		return nil, api.ErrInvalidValue
	}
}

// attestSign signs enclave-supplied bytes with the monitor attestation
// key. Only the signing enclave — identified by the measurement
// hard-coded at boot (§VI-C) — may invoke it. The signature itself is
// computed by the monitor on the signing enclave's behalf (see
// DESIGN.md's substitution table: the simulated ISA does not run
// Ed25519, and the trust relation "only code measuring as the signing
// enclave can produce attestations" is preserved exactly).
func (mon *Monitor) attestSign(e *Enclave, inVA, inLen uint64) ([]byte, api.Error) {
	if mon.signingMeasurement == ([32]byte{}) {
		return nil, api.ErrNotSupported
	}
	if e.Measurement != mon.signingMeasurement {
		return nil, api.ErrUnauthorized
	}
	if inLen == 0 || inLen > maxSignInput {
		return nil, api.ErrInvalidValue
	}
	data := make([]byte, inLen)
	if !mon.readEnclave(e, inVA, data) {
		return nil, api.ErrInvalidValue
	}
	return ed25519.Sign(mon.id.AttestPriv, data), api.OK
}

// The three calls below form the monitor's crypto service for enclave
// code (see api.CallKADerive): the simulated ISA cannot run curve
// arithmetic, so the monitor — which enclaves already trust uncondi-
// tionally — performs it on key material that never leaves enclave
// memory plus the monitor.

// kaDerive writes the X25519 public share for an enclave private scalar.
func (mon *Monitor) kaDerive(e *Enclave, privVA, outVA uint64) api.Error {
	var scalar [32]byte
	if !mon.readEnclave(e, privVA, scalar[:]) {
		return api.ErrInvalidValue
	}
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		return api.ErrInvalidValue
	}
	if !mon.writeEnclave(e, outVA, priv.PublicKey().Bytes()) {
		return api.ErrInvalidValue
	}
	return api.OK
}

// kaCombine derives the session key from the enclave's private scalar
// and a peer public share.
func (mon *Monitor) kaCombine(e *Enclave, privVA, peerVA, outVA uint64) api.Error {
	var scalar, peerBytes [32]byte
	if !mon.readEnclave(e, privVA, scalar[:]) || !mon.readEnclave(e, peerVA, peerBytes[:]) {
		return api.ErrInvalidValue
	}
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		return api.ErrInvalidValue
	}
	peer, err := ecdh.X25519().NewPublicKey(peerBytes[:])
	if err != nil {
		return api.ErrInvalidValue
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return api.ErrInvalidValue
	}
	key := kdf.SessionKey(secret, priv.PublicKey().Bytes(), peerBytes[:])
	if !mon.writeEnclave(e, outVA, key) {
		return api.ErrInvalidValue
	}
	return api.OK
}

// macService computes a keyed authenticator over enclave memory.
func (mon *Monitor) macService(e *Enclave, keyVA, msgVA, msgLen, outVA uint64) api.Error {
	if msgLen == 0 || msgLen > maxSignInput {
		return api.ErrInvalidValue
	}
	var key [32]byte
	msg := make([]byte, msgLen)
	if !mon.readEnclave(e, keyVA, key[:]) || !mon.readEnclave(e, msgVA, msg) {
		return api.ErrInvalidValue
	}
	tag := kdf.MAC(key[:], msg)
	if !mon.writeEnclave(e, outVA, tag[:]) {
		return api.ErrInvalidValue
	}
	return api.OK
}
