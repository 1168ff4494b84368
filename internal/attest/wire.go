package attest

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sanctorum/internal/crypto/sha3"
)

// Wire form for evidence crossing machines (the fleet's cross-machine
// handshake, DESIGN.md §12): measurement ‖ nonce ‖ three u32-length-
// prefixed variable fields (KA share, signature, cert chain). The
// encoding carries no trust — a forged or replayed blob parses fine
// and is refused by Verify.

// MarshalEvidence encodes ev for ring transport.
func MarshalEvidence(ev *Evidence) []byte {
	out := make([]byte, 0, 32+NonceSize+12+len(ev.KAShare)+len(ev.Signature)+len(ev.CertChain))
	out = append(out, ev.EnclaveMeasurement[:]...)
	out = append(out, ev.Nonce[:]...)
	for _, field := range [][]byte{ev.KAShare, ev.Signature, ev.CertChain} {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(field)))
		out = append(out, n[:]...)
		out = append(out, field...)
	}
	return out
}

// UnmarshalEvidence decodes a MarshalEvidence blob.
func UnmarshalEvidence(blob []byte) (*Evidence, error) {
	ev := &Evidence{}
	if len(blob) < 32+NonceSize {
		return nil, fmt.Errorf("%w: evidence blob of %d bytes", ErrBadEvidence, len(blob))
	}
	copy(ev.EnclaveMeasurement[:], blob)
	copy(ev.Nonce[:], blob[32:])
	rest := blob[32+NonceSize:]
	for _, field := range []*[]byte{&ev.KAShare, &ev.Signature, &ev.CertChain} {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated field length", ErrBadEvidence)
		}
		// Compared unsigned: on a 32-bit platform int(0xFFFFFFFF) is -1.
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: field of %d bytes in %d remaining", ErrBadEvidence, n, len(rest))
		}
		*field = append([]byte(nil), rest[:n]...)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadEvidence, len(rest))
	}
	return ev, nil
}

// ChannelBinding derives a channel's identity from the two directional
// attestation transcripts that established it: a hash over both signed
// payloads (measurement ‖ nonce ‖ share of each direction), absorbed
// in sorted order so both endpoints derive the same value regardless
// of who initiated. Every data message on the channel is authenticated
// together with this binding, so a message sealed for one attested
// pipe cannot be replayed onto another even by an adversary holding
// both transcripts: the MAC keys differ and the binding pins the
// measurements the channel was established between.
func ChannelBinding(a, b *Evidence) [32]byte {
	pa, pb := a.SignedPayload(), b.SignedPayload()
	if bytes.Compare(pa, pb) > 0 {
		pa, pb = pb, pa
	}
	blob := make([]byte, 0, len(pa)+len(pb)+16)
	blob = append(blob, "fleet-channel-v1"...)
	blob = append(blob, pa...)
	blob = append(blob, pb...)
	return sha3.Sum256(blob)
}
