package sniffer

// streamAssembler reconstructs the in-order prefix of one direction of a
// TCP stream from possibly reordered, duplicated or overlapping segments.
// It tracks the client's initial sequence number (from the SYN) and holds
// out-of-order segments until the gap before them fills.
//
// It is deliberately scoped to what the observer needs — the first few
// kilobytes of the client stream where the ClientHello lives — rather
// than a general reassembler: total buffering is bounded, and the
// assembler is abandoned once the prefix has been consumed. The zero
// value is an empty assembler.
type streamAssembler struct {
	// isn is the initial sequence number; the first payload byte is
	// isn+1 (the SYN consumes one sequence number).
	isn     uint32
	haveISN bool
	// assembled is the contiguous in-order prefix.
	assembled []byte
	// pending holds out-of-order segments keyed by their relative
	// stream offset; made when the first one arrives, which on most
	// flows is never.
	pending map[uint32][]byte
	// pendingBytes bounds memory for reordered data.
	pendingBytes int
}

// assemblerLimit bounds the total buffered bytes (in-order plus pending).
const assemblerLimit = maxFlowBuffer

// SYN records the initial sequence number.
func (a *streamAssembler) SYN(seq uint32) {
	if !a.haveISN {
		a.isn = seq
		a.haveISN = true
	}
}

// Add ingests one segment with absolute sequence number seq. It returns
// false when the assembler has given up (buffer limit exceeded or no ISN
// seen for a mid-stream flow).
func (a *streamAssembler) Add(seq uint32, payload []byte) bool {
	if len(payload) == 0 {
		return true
	}
	if !a.haveISN {
		// Mid-stream capture without the SYN: treat this first
		// segment as the stream start (best effort, as a real
		// observer would).
		a.isn = seq - 1
		a.haveISN = true
	}
	// Relative offset of the first payload byte within the stream.
	rel := seq - (a.isn + 1)
	if rel >= assemblerLimit {
		return false
	}
	cur := uint32(len(a.assembled))
	switch {
	case rel <= cur && rel+uint32(len(payload)) > cur:
		// Extends the contiguous prefix (possibly overlapping it).
		a.assembled = append(a.assembled, payload[cur-rel:]...)
		a.drainPending()
	case rel < cur:
		// Full retransmission of known data: ignore.
	default:
		// Gap: park it.
		if a.pendingBytes+len(payload) > assemblerLimit {
			return false
		}
		if _, dup := a.pending[rel]; !dup {
			if a.pending == nil {
				a.pending = make(map[uint32][]byte)
			}
			a.pending[rel] = append([]byte(nil), payload...)
			a.pendingBytes += len(payload)
		}
	}
	return len(a.assembled) <= assemblerLimit
}

// drainPending repeatedly splices parked segments that now touch the
// contiguous prefix.
func (a *streamAssembler) drainPending() {
	for {
		cur := uint32(len(a.assembled))
		found := false
		for rel, seg := range a.pending {
			if rel <= cur && rel+uint32(len(seg)) > cur {
				a.assembled = append(a.assembled, seg[cur-rel:]...)
				delete(a.pending, rel)
				a.pendingBytes -= len(seg)
				found = true
				break
			}
			if rel+uint32(len(seg)) <= cur {
				// Fully covered by the prefix now.
				delete(a.pending, rel)
				a.pendingBytes -= len(seg)
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
}

// startsStream reports whether a segment at seq would be the stream's
// first byte with nothing buffered before or after it, so that it alone
// is the whole prefix Add would assemble.
func (a *streamAssembler) startsStream(seq uint32) bool {
	return len(a.assembled) == 0 && len(a.pending) == 0 && (!a.haveISN || seq == a.isn+1)
}

// Bytes returns the contiguous in-order prefix assembled so far.
func (a *streamAssembler) Bytes() []byte { return a.assembled }

// Release drops all buffered state.
func (a *streamAssembler) Release() {
	a.assembled = nil
	a.pending = nil
	a.pendingBytes = 0
}
