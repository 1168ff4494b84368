package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sanctorum/internal/attest"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/sm/api"
)

// Cross-machine attested channels (DESIGN.md §12): two shards bind a
// pipe between their attested-client enclaves by running the paper's
// Fig 7 remote-attestation handshake twice, once per direction, over
// the fleet's untrusted wire. Each direction gives one side's runtime a
// session key it shares only with the *peer machine's enclave* — the
// attestation proves which enclave, on which monitor, under which
// manufacturer root. The channel binding hashes both transcripts, and
// every data message authenticates together with it, so nothing sealed
// for one channel opens on another.

// Hello opens one handshake direction: the verifier shard's nonce and
// ephemeral key-agreement share, destined for the prover shard's
// attested client. The private half of the agreement stays on the
// verifier side (unexported), exactly as in Fig 7.
type Hello struct {
	Verifier, Prover int
	Nonce            [attest.NonceSize]byte
	Share            []byte

	ka *attest.KeyAgreement
}

// Offer is the prover's response: evidence signed by its monitor's
// attestation key plus the enclave's key-confirmation MAC over
// enclaves.SessionPlaintext (proof the enclave derived the same
// session key, not just that the share was signed).
type Offer struct {
	Prover   int
	Evidence *attest.Evidence
	MAC      [32]byte
}

// NewHello draws a fresh nonce and key agreement for one handshake
// direction. Exported (rather than folded into Connect) so the
// adversary battery can replay stale offers against fresh hellos.
func (f *Fleet) NewHello(verifier, prover int) (*Hello, error) {
	if verifier < 0 || verifier >= len(f.shards) || prover < 0 || prover >= len(f.shards) {
		return nil, fmt.Errorf("fleet: hello between shards %d and %d", verifier, prover)
	}
	ka, err := attest.NewKeyAgreement(f.rng)
	if err != nil {
		return nil, err
	}
	h := &Hello{Verifier: verifier, Prover: prover, Share: ka.Share(), ka: ka}
	f.rng.Read(h.Nonce[:])
	return h, nil
}

// Prove drives the prover shard's guest flow — ES arms its mailbox,
// E1 mails (nonce ‖ share) to ES, ES fetches the monitor signature,
// E1 assembles the response and MACs the session plaintext — and
// returns the offer. Fig 7 steps 3–7, one machine, unchanged from the
// single-machine flow.
func (f *Fleet) Prove(h *Hello) (*Offer, error) {
	s := f.shards[h.Prover]
	o := s.host.OS
	if err := s.writeWord(s.shES, enclaves.ShInput, 0); err != nil {
		return nil, err
	}
	s.writeWord(s.shES, enclaves.ShPeerEID, s.e1.EID)
	if err := s.runGuest(s.es); err != nil {
		return nil, err
	}
	s.writeWord(s.shE1, enclaves.ShInput, 0)
	s.writeWord(s.shE1, enclaves.ShPeerEID, s.es.EID)
	if err := o.WriteOwned(s.shE1+enclaves.ShNonce, h.Nonce[:]); err != nil {
		return nil, err
	}
	if err := s.runGuest(s.e1); err != nil {
		return nil, err
	}
	s.writeWord(s.shES, enclaves.ShInput, 1)
	if err := s.runGuest(s.es); err != nil {
		return nil, err
	}
	s.writeWord(s.shE1, enclaves.ShInput, 1)
	if err := o.WriteOwned(s.shE1+enclaves.ShPeerKA, h.Share); err != nil {
		return nil, err
	}
	if err := s.runGuest(s.e1); err != nil {
		return nil, err
	}
	share, err := o.ReadOwned(s.shE1+enclaves.ShShare, 32)
	if err != nil {
		return nil, err
	}
	sig, _ := o.ReadOwned(s.shE1+enclaves.ShSig, 64)
	macBytes, _ := o.ReadOwned(s.shE1+enclaves.ShMACOut, 32)
	chain, err := o.GetField(api.FieldCertChain)
	if err != nil {
		return nil, err
	}
	off := &Offer{
		Prover: h.Prover,
		Evidence: &attest.Evidence{
			EnclaveMeasurement: s.clientMeas,
			Nonce:              h.Nonce,
			KAShare:            share,
			Signature:          sig,
			CertChain:          chain,
		},
	}
	copy(off.MAC[:], macBytes)
	return off, nil
}

// VerifyOffer is the verifier side: the evidence must verify under the
// *claimed prover's* pinned manufacturer root, name the fleet's
// attested-client measurement, carry the hello's nonce, and be
// certified for that machine's monitor; then the key-confirmation MAC
// must open under the derived session key. Returns the direction's
// session key. Every cross-machine channel exists only downstream of
// this succeeding in both directions.
func (f *Fleet) VerifyOffer(h *Hello, off *Offer) ([]byte, error) {
	if off.Prover != h.Prover {
		return nil, fmt.Errorf("fleet: offer from shard %d, hello for shard %d", off.Prover, h.Prover)
	}
	prover := f.shards[h.Prover]
	pol := attest.Policy{
		TrustedRoot:     prover.host.TrustedRoot,
		ExpectedEnclave: prover.clientMeas,
		AcceptMonitor: func(m []byte) bool {
			return bytes.Equal(m, prover.monitorMeas[:])
		},
	}
	if err := attest.Verify(off.Evidence, h.Nonce, pol); err != nil {
		return nil, err
	}
	key, err := h.ka.SessionKey(off.Evidence.KAShare)
	if err != nil {
		return nil, err
	}
	if !attest.Open(key, enclaves.SessionPlaintext, off.MAC) {
		return nil, fmt.Errorf("fleet: key confirmation MAC invalid")
	}
	return key, nil
}

// Channel is an established measurement-bound pipe between the
// attested clients of shards A and B.
type Channel struct {
	f       *Fleet
	A, B    int
	Binding [32]byte

	keyAB, keyBA []byte // A→B and B→A direction keys
}

// Connect establishes a channel between shards a and b by running the
// mutual handshake over the wire: hellos and offers travel as byte
// blobs machine to machine, each side verifies the other's evidence,
// and the channel binding commits to both transcripts.
func (f *Fleet) Connect(a, b int) (*Channel, error) {
	if a == b {
		return nil, fmt.Errorf("fleet: channel endpoints must differ")
	}
	if t := f.tel; t != nil {
		// The handshake actually runs both machines' enclaves, so its
		// latency in modeled cycles is a real cross-machine figure.
		begin := f.Clock()
		defer func() { t.handshake.Observe(f.Clock() - begin) }()
	}
	dir := func(verifier, prover int) ([]byte, *attest.Evidence, error) {
		h, err := f.NewHello(verifier, prover)
		if err != nil {
			return nil, nil, err
		}
		// Hello travels verifier → prover; the prover reconstructs it
		// from the wire (the enclave never sees more than nonce+share).
		if err := f.send(verifier, prover, marshalHello(h)); err != nil {
			return nil, nil, err
		}
		hw, err := f.recv(prover)
		if err != nil {
			return nil, nil, err
		}
		ph, err := unmarshalHello(hw, verifier, prover)
		if err != nil {
			return nil, nil, err
		}
		off, err := f.Prove(ph)
		if err != nil {
			return nil, nil, err
		}
		if err := f.send(prover, verifier, marshalOffer(off)); err != nil {
			return nil, nil, err
		}
		ow, err := f.recv(verifier)
		if err != nil {
			return nil, nil, err
		}
		roff, err := unmarshalOffer(ow)
		if err != nil {
			return nil, nil, err
		}
		key, err := f.VerifyOffer(h, roff)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: shard %d refused shard %d: %w", verifier, prover, err)
		}
		return key, roff.Evidence, nil
	}
	keyAB, evA, err := dir(b, a)
	if err != nil {
		return nil, err
	}
	keyBA, evB, err := dir(a, b)
	if err != nil {
		return nil, err
	}
	return &Channel{
		f: f, A: a, B: b,
		Binding: attest.ChannelBinding(evA, evB),
		keyAB:   keyAB, keyBA: keyBA,
	}, nil
}

// Seal authenticates msg for the channel in the given direction: the
// MAC covers (binding ‖ msg), so the wire is useless on any other
// channel. Returns the wire form (length ‖ msg ‖ tag).
func (c *Channel) Seal(from int, msg []byte) ([]byte, error) {
	key, _, err := c.direction(from)
	if err != nil {
		return nil, err
	}
	tag := attest.Seal(key, append(c.Binding[:], msg...))
	wire := make([]byte, 4, 4+len(msg)+32)
	binary.LittleEndian.PutUint32(wire, uint32(len(msg)))
	wire = append(wire, msg...)
	return append(wire, tag[:]...), nil
}

// Deliver authenticates a wire blob arriving at endpoint `to` and
// returns the message. A blob sealed for a different channel — or for
// the other direction, or tampered in flight — is refused.
func (c *Channel) Deliver(to int, wire []byte) ([]byte, error) {
	var key []byte
	switch to {
	case c.B:
		key = c.keyAB
	case c.A:
		key = c.keyBA
	default:
		return nil, fmt.Errorf("fleet: shard %d is not a channel endpoint", to)
	}
	if len(wire) < 36 {
		return nil, fmt.Errorf("fleet: channel wire of %d bytes", len(wire))
	}
	n := int(binary.LittleEndian.Uint32(wire))
	if n != len(wire)-36 {
		return nil, fmt.Errorf("fleet: channel wire framing mismatch")
	}
	msg := wire[4 : 4+n]
	var tag [32]byte
	copy(tag[:], wire[4+n:])
	if !attest.Open(key, append(c.Binding[:], msg...), tag) {
		return nil, fmt.Errorf("fleet: channel authenticator invalid")
	}
	return append([]byte(nil), msg...), nil
}

// Transfer seals msg, carries it across the wire, and delivers it at
// the peer, returning the authenticated message as received.
func (c *Channel) Transfer(from int, msg []byte) ([]byte, error) {
	wire, err := c.Seal(from, msg)
	if err != nil {
		return nil, err
	}
	_, to, err := c.direction(from)
	if err != nil {
		return nil, err
	}
	if err := c.f.send(from, to, wire); err != nil {
		return nil, err
	}
	got, err := c.f.recv(to)
	if err != nil {
		return nil, err
	}
	return c.Deliver(to, got)
}

func (c *Channel) direction(from int) (key []byte, to int, err error) {
	switch from {
	case c.A:
		return c.keyAB, c.B, nil
	case c.B:
		return c.keyBA, c.A, nil
	}
	return nil, 0, fmt.Errorf("fleet: shard %d is not a channel endpoint", from)
}

// --- wire forms and transport ---

func marshalHello(h *Hello) []byte {
	out := make([]byte, 0, attest.NonceSize+len(h.Share))
	out = append(out, h.Nonce[:]...)
	return append(out, h.Share...)
}

func unmarshalHello(blob []byte, verifier, prover int) (*Hello, error) {
	if len(blob) != attest.NonceSize+32 {
		return nil, fmt.Errorf("fleet: hello wire of %d bytes", len(blob))
	}
	h := &Hello{Verifier: verifier, Prover: prover}
	copy(h.Nonce[:], blob)
	h.Share = append([]byte(nil), blob[attest.NonceSize:]...)
	return h, nil
}

func marshalOffer(o *Offer) []byte {
	ev := attest.MarshalEvidence(o.Evidence)
	out := make([]byte, 12, 12+len(ev)+32)
	binary.LittleEndian.PutUint64(out, uint64(o.Prover))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(ev)))
	out = append(out, ev...)
	return append(out, o.MAC[:]...)
}

func unmarshalOffer(blob []byte) (*Offer, error) {
	if len(blob) < 44 {
		return nil, fmt.Errorf("fleet: offer wire of %d bytes", len(blob))
	}
	o := &Offer{Prover: int(binary.LittleEndian.Uint64(blob))}
	n := int(binary.LittleEndian.Uint32(blob[8:]))
	if len(blob) != 12+n+32 {
		return nil, fmt.Errorf("fleet: offer wire framing mismatch")
	}
	ev, err := attest.UnmarshalEvidence(blob[12 : 12+n])
	if err != nil {
		return nil, err
	}
	o.Evidence = ev
	copy(o.MAC[:], blob[12+n:])
	return o, nil
}

// send puts a copy of blob on the wire to shard to. The wire sits
// exactly where a network would — outside both monitors, able to drop,
// duplicate or corrupt what it carries — which is why channels
// authenticate end to end.
func (f *Fleet) send(from, to int, blob []byte) error {
	if from == to {
		return fmt.Errorf("fleet: send to self")
	}
	f.inbox[to] = append(f.inbox[to], bytes.Clone(blob))
	return nil
}

// recv takes the oldest blob that arrived at shard at.
func (f *Fleet) recv(at int) ([]byte, error) {
	q := f.inbox[at]
	if len(q) == 0 {
		return nil, fmt.Errorf("fleet: shard %d rx: nothing arrived", at)
	}
	blob := q[0]
	q[0] = nil
	f.inbox[at] = q[1:]
	return blob, nil
}
