package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"sanctorum/internal/attest"
)

// The handshake's wire forms are parsed from bytes an untrusted network
// delivered: every malformed blob must be refused with an error, never
// a panic, and a blob that parses must marshal back to itself.

// wireParser parses one wire form and marshals the result back.
type wireParser struct {
	name    string
	reparse func(blob []byte) ([]byte, error)
}

var wireParsers = []wireParser{
	{"hello", func(blob []byte) ([]byte, error) {
		h, err := unmarshalHello(blob, 0, 1)
		if err != nil {
			return nil, err
		}
		return marshalHello(h), nil
	}},
	{"offer", func(blob []byte) ([]byte, error) {
		o, err := unmarshalOffer(blob)
		if err != nil {
			return nil, err
		}
		return marshalOffer(o), nil
	}},
	{"evidence", func(blob []byte) ([]byte, error) {
		ev, err := attest.UnmarshalEvidence(blob)
		if err != nil {
			return nil, err
		}
		return attest.MarshalEvidence(ev), nil
	}},
}

// wireCase is one blob for one parser, and whether it must parse.
type wireCase struct {
	name string
	p    wireParser
	blob []byte
	ok   bool
}

// Offsets of the u32 length fields in the blobs wireCases builds: the
// evidence's KA share, signature and cert chain, and the offer's
// evidence.
const (
	evShareLen = 32 + attest.NonceSize
	evSigLen   = evShareLen + 4 + 32
	evChainLen = evSigLen + 4 + 64
	offerEvLen = 8
)

// wireCases returns, for each parser, a valid blob, every proper
// prefix of it, the blob with a trailing byte, and for the
// length-prefixed forms each length field set one past the bytes that
// remain and to 0xFFFFFFFF. Parsing carries no trust, so the fields
// need not verify.
func wireCases() []wireCase {
	ev := &attest.Evidence{
		KAShare:   bytes.Repeat([]byte{0xA1}, 32),
		Signature: bytes.Repeat([]byte{0xB2}, 64),
		CertChain: bytes.Repeat([]byte{0xC3}, 100),
	}
	for i := range ev.EnclaveMeasurement {
		ev.EnclaveMeasurement[i], ev.Nonce[i] = byte(i), byte(0x80+i)
	}
	h := &Hello{Nonce: ev.Nonce, Share: bytes.Repeat([]byte{0xD4}, 32)}
	o := &Offer{Prover: 1, Evidence: ev}
	for i := range o.MAC {
		o.MAC[i] = byte(0x40 + i)
	}
	valid := [][]byte{marshalHello(h), marshalOffer(o), attest.MarshalEvidence(ev)}
	lengths := [][]int{nil, {offerEvLen, 12 + evShareLen, 12 + evChainLen}, {evShareLen, evSigLen, evChainLen}}

	var cases []wireCase
	for i, p := range wireParsers {
		blob := valid[i]
		cases = append(cases, wireCase{p.name + "/round trip", p, blob, true})
		for n := range len(blob) {
			cases = append(cases, wireCase{fmt.Sprintf("%s/prefix %d", p.name, n), p, blob[:n], false})
		}
		cases = append(cases, wireCase{p.name + "/trailing byte", p, append(bytes.Clone(blob), 0), false})
		for _, off := range lengths[i] {
			past := uint32(len(blob) - off - 4 + 1)
			for _, v := range []uint32{past, 0xFFFFFFFF} {
				bad := bytes.Clone(blob)
				binary.LittleEndian.PutUint32(bad[off:], v)
				cases = append(cases, wireCase{fmt.Sprintf("%s/length at %d = %#x", p.name, off, v), p, bad, false})
			}
		}
	}
	return cases
}

// TestWireParsersRefuseMalformed: a valid blob round-trips, and every
// truncated, overlong or wrongly sized one is refused with an error.
func TestWireParsersRefuseMalformed(t *testing.T) {
	for _, c := range wireCases() {
		got, err := c.p.reparse(c.blob)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && !bytes.Equal(got, c.blob):
			t.Errorf("%s: marshals back to %x, want %x", c.name, got, c.blob)
		case !c.ok && err == nil:
			t.Errorf("%s: parsed a malformed blob", c.name)
		}
	}
}

// FuzzWire feeds arbitrary bytes to every wire parser, seeded with
// TestWireParsersRefuseMalformed's blobs: no parser may panic, and a
// blob one parses must marshal back to itself.
func FuzzWire(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(c.blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, p := range wireParsers {
			if got, err := p.reparse(blob); err == nil && !bytes.Equal(got, blob) {
				t.Fatalf("%s: %x parses but marshals back to %x", p.name, blob, got)
			}
		}
	})
}
