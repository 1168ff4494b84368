package sm

import "sanctorum/internal/sm/api"

// MailboxState is the state of one mailbox (paper Fig 5, extended with
// the explicit expecting state implied by accept_mail's anti-DoS rule).
type MailboxState uint8

// Mailbox states.
const (
	// MailboxEmpty: not accepting; sends are refused (DoS protection).
	MailboxEmpty MailboxState = iota
	// MailboxExpecting: the recipient declared a sender via accept_mail.
	MailboxExpecting
	// MailboxFull: holds one message until get_mail drains it.
	MailboxFull
)

func (s MailboxState) String() string {
	switch s {
	case MailboxEmpty:
		return "empty"
	case MailboxExpecting:
		return "expecting"
	case MailboxFull:
		return "full"
	default:
		return "mailbox-state-?"
	}
}

// Mailbox is a single-message authenticated channel in an enclave's
// metadata (§VI-B). The monitor stamps each delivery with the sender's
// measurement, which is what makes local attestation work: recipients
// trust the monitor, not the message path.
type Mailbox struct {
	State          MailboxState
	ExpectedSender uint64 // eid (or api.DomainOS) allowed to deliver
	SenderMeas     [32]byte
	Msg            [api.MailboxSize]byte
}

// acceptMail arms mailbox idx to receive from expectedSender
// (accept_mail by the recipient enclave, Fig 5).
func (mon *Monitor) acceptMail(e *Enclave, idx int, expectedSender uint64) api.Error {
	if idx < 0 || idx >= len(e.Mailboxes) {
		return api.ErrInvalidValue
	}
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return api.ErrRetry
	}
	defer e.mu.Unlock()
	mb := &e.Mailboxes[idx]
	if mb.State == MailboxFull {
		return api.ErrInvalidState
	}
	mb.State = MailboxExpecting
	mb.ExpectedSender = expectedSender
	return api.OK
}

// deliverMail places a message in the recipient's mailbox if the
// recipient is expecting this sender (send_mail, Fig 5). senderMeas is
// the measurement the monitor attests for the sender; the OS sends with
// the reserved DomainOS identity and an all-zero measurement.
func (mon *Monitor) deliverMail(senderID uint64, senderMeas [32]byte, recipientEID uint64, msg []byte) api.Error {
	if len(msg) != api.MailboxSize {
		return api.ErrInvalidValue
	}
	rec, st := mon.lookupEnclave(recipientEID)
	if st != api.OK {
		return st
	}
	defer rec.mu.Unlock()
	if rec.State != EnclaveInitialized {
		return api.ErrInvalidState
	}
	for i := range rec.Mailboxes {
		mb := &rec.Mailboxes[i]
		if mb.State == MailboxExpecting && mb.ExpectedSender == senderID {
			mb.State = MailboxFull
			mb.SenderMeas = senderMeas
			copy(mb.Msg[:], msg)
			return api.OK
		}
	}
	// No armed mailbox for this sender: refused, thwarting DoS by
	// unsolicited senders (§VI-B).
	return api.ErrInvalidState
}

// getMail drains mailbox idx (get_mail by the recipient, Fig 5),
// returning the message and the monitor-attested sender measurement.
func (mon *Monitor) getMail(e *Enclave, idx int) ([]byte, [32]byte, api.Error) {
	var zero [32]byte
	if idx < 0 || idx >= len(e.Mailboxes) {
		return nil, zero, api.ErrInvalidValue
	}
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return nil, zero, api.ErrRetry
	}
	defer e.mu.Unlock()
	mb := &e.Mailboxes[idx]
	if mb.State != MailboxFull {
		return nil, zero, api.ErrInvalidState
	}
	msg := append([]byte(nil), mb.Msg[:]...)
	meas := mb.SenderMeas
	mb.State = MailboxEmpty
	mb.ExpectedSender = 0
	mb.SenderMeas = zero
	mb.Msg = [api.MailboxSize]byte{}
	return msg, meas, api.OK
}
