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
	// The enclave fields describe the calling enclave: the OS has none.
	if caller == nil && f >= api.FieldEnclaveMeasurement && f <= api.FieldEnclaveGrants {
		return nil, api.ErrUnauthorized
	}
	switch f {
	case api.FieldSMMeasurement:
		return append([]byte(nil), mon.id.Measurement[:]...), api.OK
	case api.FieldSMPublicKey:
		return append([]byte(nil), mon.id.AttestPub...), api.OK
	case api.FieldCertChain:
		return mon.id.Chain.Marshal(), api.OK
	case api.FieldEnclaveMeasurement:
		return append([]byte(nil), caller.Measurement[:]...), api.OK
	case api.FieldEnclaveIdentity:
		// measurement[32] ‖ eid[8] ‖ origin[8]: the full attestation
		// identity. A clone shares its template's measurement but keeps
		// a per-clone enclave ID, and origin=1 marks the measurement as
		// inherited through a snapshot fork rather than measured over
		// this enclave's own load sequence (DESIGN.md §8).
		out := make([]byte, 48)
		copy(out, caller.Measurement[:])
		binary.LittleEndian.PutUint64(out[32:], caller.ID)
		if caller.CloneOf != 0 {
			binary.LittleEndian.PutUint64(out[40:], 1)
		}
		return out, api.OK
	case api.FieldEnclaveRings:
		// Ring id[8] ‖ role[8] per ring the caller is an endpoint of,
		// in creation order — how a cloned worker, whose measured image
		// cannot embed per-clone names, discovers its own rings.
		return mon.directory(caller, false), api.OK
	case api.FieldEnclaveGrants:
		// Grant id[8] ‖ role[8] ‖ byte size[8] per grant the caller is
		// an endpoint of, in creation order — how a cloned worker
		// discovers the shared buffer it should bulk_map.
		return mon.directory(caller, true), api.OK
	default:
		return nil, api.ErrInvalidValue
	}
}

// attestSign signs a1 enclave-supplied bytes at a0 with the monitor
// attestation key and writes the signature to a2. Only the signing
// enclave — identified by the measurement hard-coded at boot (§VI-C) —
// may invoke it. The signature itself is computed by the monitor on the
// signing enclave's behalf (see DESIGN.md's substitution table: the
// simulated ISA does not run Ed25519, and the trust relation "only code
// measuring as the signing enclave can produce attestations" is
// preserved exactly).
func (mon *Monitor) attestSign(req api.Request, ctx *callContext) api.Response {
	e, inVA, inLen := ctx.enclave, req.Args[0], req.Args[1]
	if mon.signingMeasurement == ([32]byte{}) {
		return fail(api.ErrNotSupported)
	}
	if e.Measurement != mon.signingMeasurement {
		return fail(api.ErrUnauthorized)
	}
	if inLen == 0 || inLen > maxSignInput {
		return fail(api.ErrInvalidValue)
	}
	data := make([]byte, inLen)
	if !mon.readEnclave(e, inVA, data) || !mon.writeEnclave(e, req.Args[2], ed25519.Sign(mon.id.AttestPriv, data)) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

// The three calls below form the monitor's crypto service for enclave
// code (see api.CallKADerive): the simulated ISA cannot run curve
// arithmetic, so the monitor — which enclaves already trust uncondi-
// tionally — performs it on key material that never leaves enclave
// memory plus the monitor.

// kaDerive writes to a1 the X25519 public share for the enclave
// private scalar at a0.
func (mon *Monitor) kaDerive(req api.Request, ctx *callContext) api.Response {
	e := ctx.enclave
	var scalar [32]byte
	if !mon.readEnclave(e, req.Args[0], scalar[:]) {
		return fail(api.ErrInvalidValue)
	}
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil || !mon.writeEnclave(e, req.Args[1], priv.PublicKey().Bytes()) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

// kaCombine derives the session key from the enclave's private scalar
// at a0 and the peer public share at a1, writing it to a2.
func (mon *Monitor) kaCombine(req api.Request, ctx *callContext) api.Response {
	e := ctx.enclave
	var scalar, peerBytes [32]byte
	if !mon.readEnclave(e, req.Args[0], scalar[:]) || !mon.readEnclave(e, req.Args[1], peerBytes[:]) {
		return fail(api.ErrInvalidValue)
	}
	priv, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		return fail(api.ErrInvalidValue)
	}
	peer, err := ecdh.X25519().NewPublicKey(peerBytes[:])
	if err != nil {
		return fail(api.ErrInvalidValue)
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return fail(api.ErrInvalidValue)
	}
	key := kdf.SessionKey(secret, priv.PublicKey().Bytes(), peerBytes[:])
	if !mon.writeEnclave(e, req.Args[2], key) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

// mac computes a keyed authenticator with the key at a0 over a2 bytes
// of enclave memory at a1, writing the tag to a3.
func (mon *Monitor) mac(req api.Request, ctx *callContext) api.Response {
	e, msgLen := ctx.enclave, req.Args[2]
	if msgLen == 0 || msgLen > maxSignInput {
		return fail(api.ErrInvalidValue)
	}
	var key [32]byte
	msg := make([]byte, msgLen)
	if !mon.readEnclave(e, req.Args[0], key[:]) || !mon.readEnclave(e, req.Args[1], msg) {
		return fail(api.ErrInvalidValue)
	}
	tag := kdf.MAC(key[:], msg)
	if !mon.writeEnclave(e, req.Args[3], tag[:]) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}
