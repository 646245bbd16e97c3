package wire

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// The reliability layer sits between Send/dispatch and the UDP sockets.
// Sequence numbers, ack state, retransmit windows and reassembly buffers
// are all kept per (peer node, plane): the planes are independent physical
// networks in the paper's design, so a plane losing packets must not stall
// traffic on its siblings.
//
// Sender side: every data frame occupies one sequence number (starting at
// 1; 0 means "no sequence") and is held until the peer acks it. A frame
// leaves only while it lies within window sequences of the lane's base —
// the lowest unsettled sequence — so a stuck frame stalls the lane instead
// of letting the receiver's out-of-order state grow; later frames wait in
// order. Each lane has one retransmit timer, armed for its earliest
// deadline; retransmission backs off exponentially per frame from the base
// RTO, and a frame that exhausts its retries declares the whole (peer,
// plane) unreachable — pending traffic is dropped and the fault surfaces
// through the WithPeerFaultHandler callback wrapping ErrPeerUnreachable.
// Every data frame carries the window base at the time it leaves, so a
// receiver can advance past frames the sender has settled or abandoned.
//
// Receiver side: the ack is cumulative with selective bits — cum is the
// point below which every sequence has been delivered (or abandoned by the
// sender), and bit i says cum+1+i was delivered too. A frame at or below
// cum, or already delivered above it, is a duplicate: counted, dropped,
// and acked at once, since the sender evidently missed the ack. Acks ride
// return data frames whenever there are any; otherwise a standalone ack
// leaves on every second unacked data frame, at once on a gap or a
// duplicate, and after rto/4 for a lone frame. Fragments of one message
// occupy consecutive sequence numbers; seq-fragIndex keys the reassembly
// buffer, which expires if the remaining fragments never arrive (their
// retransmission having faulted the peer).
//
// All reliability state lives behind relMu, never the node's Loop: acks
// and retransmissions must flow even while daemon code holds the loop.
// Datagrams are written while relMu is held, so a lane's frames leave in
// the order the lock hands out their sequence numbers.

// peerKey names one directed traffic lane.
type peerKey struct {
	node  types.NodeID
	plane int
}

// slot is one sequence number held in a lane's send window. Its buffer
// never leaves relMu's protection: it is stamped and written under the
// lock, so settling it back into the pool cannot race a write.
type slot struct {
	buf      *wbuf     // encoded frame; nil once settled
	attempts int       // retransmissions so far
	due      time.Time // retransmit deadline of a transmitted frame
}

// txState is the sender's view of one (peer, plane) lane. Sequences
// [base, sent) have been transmitted, [sent, nextSeq) wait for the window;
// both live in ring, indexed by seq modulo its power-of-two length.
type txState struct {
	nextSeq uint32
	base    uint32
	sent    uint32
	ring    []slot

	timer    clock.Timer // the lane's one retransmit timer
	timerAt  time.Time   // its deadline; zero while disarmed
	timerGen uint64      // bumped on every arm, so a stale callback bows out
}

func (tx *txState) slot(seq uint32) *slot { return &tx.ring[seq&uint32(len(tx.ring)-1)] }

// held reports how many sequences the lane holds, settled holes included.
func (tx *txState) held() int { return int(tx.nextSeq - tx.base) }

// push appends one encoded frame at the next sequence number.
func (tx *txState) push(buf *wbuf) {
	if tx.held() == len(tx.ring) {
		ring := make([]slot, max(8, 2*len(tx.ring)))
		for s := tx.base; s != tx.nextSeq; s++ {
			ring[s&uint32(len(ring)-1)] = *tx.slot(s)
		}
		tx.ring = ring
	}
	*tx.slot(tx.nextSeq) = slot{buf: buf}
	tx.nextSeq++
}

// rxState is the receiver's view of one (peer, plane) lane.
type rxState struct {
	cum      uint32              // every sequence <= cum delivered or abandoned
	above    map[uint32]struct{} // sequences > cum already delivered
	unacked  int                 // data frames taken in since the last ack left
	ackArmed bool                // the delayed-ack timer is running
	reasm    map[uint32]*reassembly
}

// reassembly collects the fragments of one message.
type reassembly struct {
	parts [][]byte
	have  int
	size  int
	timer clock.Timer
}

const (
	// maxWindow bounds both the send window option and how far above its
	// cumulative point a receiver accepts a frame, which caps the
	// out-of-order state an adversarial sender can make it hold.
	maxWindow = 4096

	// reassemblyExpiry bounds how long a partial message pins memory. It
	// comfortably exceeds the full retransmission budget of the default
	// retransmit policy, so it only fires once the sender has given up.
	reassemblyExpiry = 30 * time.Second
)

// wbuf is one pooled byte buffer: an encoded message body, or a frame
// held in a lane's send window. Pooling cannot race a write: a held frame
// is written, and settled back into the pool, only under relMu, and an
// outbound filter — which may hold a datagram and send it later from
// another goroutine — only ever sees a private copy (see transmit).
type wbuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(wbuf) }}

// poolCapMax keeps pathological buffers (a huge message body) from
// pinning memory forever: anything grown past it is dropped instead of
// pooled.
const poolCapMax = maxFrameSize + headerSize

func getBuf() *wbuf { return bufPool.Get().(*wbuf) }

func putBuf(w *wbuf) {
	if cap(w.b) <= poolCapMax {
		w.b = w.b[:0]
		bufPool.Put(w)
	}
}

func (t *Transport) txFor(key peerKey) *txState {
	tx := t.tx[key]
	if tx == nil {
		tx = &txState{nextSeq: 1, base: 1, sent: 1}
		t.tx[key] = tx
	}
	return tx
}

func (t *Transport) rxFor(key peerKey) *rxState {
	rx := t.rx[key]
	if rx == nil {
		rx = &rxState{above: make(map[uint32]struct{}), reasm: make(map[uint32]*reassembly)}
		t.rx[key] = rx
	}
	return rx
}

// sendReliable fragments one encoded message body onto the (dst, plane)
// lane and transmits what fits the window. Called with no locks held.
func (t *Transport) sendReliable(dst types.NodeID, plane int, ep *net.UDPAddr, body []byte, msgType string) error {
	maxPayload := t.opt.mtu - headerSize
	nfrag := (len(body) + maxPayload - 1) / maxPayload
	if nfrag > maxFragments {
		t.reg.Counter("wire.tx.drop.oversize").Inc()
		return fmt.Errorf("wire: message %s is %d bytes, exceeds %d fragments of %d-byte MTU",
			msgType, len(body), maxFragments, t.opt.mtu)
	}
	key := peerKey{dst, plane}

	t.relMu.Lock()
	tx := t.txFor(key)
	if tx.held()+nfrag > t.opt.window+t.opt.queueMax {
		t.relMu.Unlock()
		t.reg.Counter("wire.tx.drop.overflow").Inc()
		return fmt.Errorf("wire: send queue to %v plane %d is full (%d frames): %w",
			dst, plane, t.opt.queueMax, ErrPeerUnreachable)
	}
	for i := 0; i < nfrag; i++ {
		f := frame{plane: plane, flags: flagData, src: t.node, seq: tx.nextSeq, fragCount: 1}
		if nfrag > 1 {
			f.flags |= flagFrag
			f.fragIndex, f.fragCount = uint16(i), uint16(nfrag)
			t.reg.Counter("wire.tx.frags").Inc()
		}
		f.payload = body[i*maxPayload : min((i+1)*maxPayload, len(body))]
		fb := getBuf()
		fb.b = appendFrame(fb.b[:0], f)
		tx.push(fb)
	}
	t.pumpLocked(tx, key, ep)
	stalled := min(nfrag, int(tx.nextSeq-tx.sent))
	t.relMu.Unlock()

	if stalled > 0 {
		t.reg.Counter("wire.tx.window_stalls").Add(float64(stalled))
	}
	return nil
}

// pumpLocked transmits waiting frames while the window admits them and
// arms the lane timer for their deadline. relMu must be held.
func (t *Transport) pumpLocked(tx *txState, key peerKey, ep *net.UDPAddr) {
	if tx.sent == tx.nextSeq || tx.sent-tx.base >= uint32(t.opt.window) {
		return
	}
	due := t.clk.Now().Add(t.opt.rto)
	for tx.sent != tx.nextSeq && tx.sent-tx.base < uint32(t.opt.window) {
		sl := tx.slot(tx.sent)
		sl.due = due
		t.transmitLocked(tx, key, ep, sl.buf)
		tx.sent++
	}
	t.armLocked(tx, key, due)
}

// transmitLocked stamps one held data frame with the lane's current window
// base and — once the peer has sent us data — a piggybacked ack, which
// stands in for any standalone ack still owed, then writes it to ep (nil
// when the book has no route; the frame then waits for retransmission).
// relMu must be held.
func (t *Transport) transmitLocked(tx *txState, key peerKey, ep *net.UDPAddr, fb *wbuf) {
	rx := t.rx[key]
	if rx == nil {
		stampFrame(fb.b, tx.base, false, 0, 0)
	} else {
		cum, sel := rx.ackFields()
		stampFrame(fb.b, tx.base, true, cum, sel)
		if rx.unacked > 0 {
			rx.unacked = 0
			t.reg.Counter("wire.tx.ack_piggybacked").Inc()
		}
	}
	if ep != nil {
		t.transmit(key.node, key.plane, ep, fb.b)
	}
}

// endpoint looks up a lane's address, nil when the book has none.
func (t *Transport) endpoint(key peerKey) *net.UDPAddr {
	t.mu.Lock()
	book := t.book
	t.mu.Unlock()
	if book == nil {
		return nil
	}
	ep, _ := book.Endpoint(key.node, key.plane)
	return ep
}

// armLocked makes sure the lane timer fires no later than due. A timer
// already armed earlier is left alone; the callback re-arms itself for
// whatever deadline is then the earliest. relMu must be held.
func (t *Transport) armLocked(tx *txState, key peerKey, due time.Time) {
	if !tx.timerAt.IsZero() && !due.Before(tx.timerAt) {
		return
	}
	if tx.timer != nil {
		tx.timer.Stop()
	}
	tx.timerGen++
	gen := tx.timerGen
	tx.timerAt = due
	tx.timer = t.clk.AfterFunc(due.Sub(t.clk.Now()), func() { t.laneTimer(key, gen) })
}

// laneTimer is the lane's retransmit timer: it retransmits every frame
// whose deadline passed, faults the lane when one exhausts its retries,
// and re-arms for the earliest remaining deadline.
func (t *Transport) laneTimer(key peerKey, gen uint64) {
	t.mu.Lock()
	up, closed, book := t.up, t.closed, t.book
	t.mu.Unlock()

	t.relMu.Lock()
	tx := t.tx[key]
	if tx == nil || tx.timerGen != gen {
		t.relMu.Unlock()
		return
	}
	tx.timerAt = time.Time{}
	if closed || !up || book == nil {
		// A dead or down node transmits nothing; abandon silently.
		tx.drop()
		t.relMu.Unlock()
		return
	}
	ep, _ := book.Endpoint(key.node, key.plane)
	now := t.clk.Now()
	var next time.Time
	retx := 0
	for s := tx.base; s != tx.sent; s++ {
		sl := tx.slot(s)
		if sl.buf == nil {
			continue
		}
		if !sl.due.After(now) {
			if sl.attempts++; sl.attempts > t.opt.retries {
				tx.drop()
				fn := t.opt.onPeerFault
				t.relMu.Unlock()
				t.reg.Counter("wire.tx.retransmits").Add(float64(retx))
				t.reg.Counter("wire.tx.peer_faults").Inc()
				t.markLaneDown(key)
				if fn != nil {
					fn(key.node, key.plane, fmt.Errorf("wire: %v plane %d: no ack after %d retransmits: %w",
						key.node, key.plane, t.opt.retries, ErrPeerUnreachable))
				}
				return
			}
			sl.due = now.Add(min(t.opt.rto<<uint(sl.attempts), t.opt.rtoMax))
			t.transmitLocked(tx, key, ep, sl.buf)
			retx++
		}
		if next.IsZero() || sl.due.Before(next) {
			next = sl.due
		}
	}
	if !next.IsZero() {
		t.armLocked(tx, key, next)
	}
	t.relMu.Unlock()
	t.reg.Counter("wire.tx.retransmits").Add(float64(retx))
}

// drop abandons all traffic held for the lane and disarms its timer. It
// keeps nextSeq, so sequence numbers never restart, and moves the base
// past everything dropped: the next frame's base tells the peer not to
// wait for the abandoned ones. relMu must be held.
func (tx *txState) drop() {
	for s := tx.base; s != tx.nextSeq; s++ {
		if sl := tx.slot(s); sl.buf != nil {
			putBuf(sl.buf)
			*sl = slot{}
		}
	}
	tx.base, tx.sent = tx.nextSeq, tx.nextSeq
	if tx.timer != nil {
		tx.timer.Stop()
	}
	tx.timerGen++
	tx.timerAt = time.Time{}
}

// handleAck settles every transmitted frame the ack covers — all up to the
// cumulative point, plus the selective bits above it — and opens the
// window for waiting frames. Called with no locks held.
func (t *Transport) handleAck(key peerKey, ack, sel uint32) {
	t.relMu.Lock()
	tx := t.tx[key]
	if tx == nil {
		t.relMu.Unlock()
		return
	}
	settled := 0
	settle := func(s uint32) {
		if sl := tx.slot(s); sl.buf != nil {
			putBuf(sl.buf)
			*sl = slot{}
			settled++
		}
	}
	for s := tx.base; s != tx.sent && s <= ack; s++ {
		settle(s)
	}
	for ; sel != 0; sel &= sel - 1 {
		s := ack + 1 + uint32(bits.TrailingZeros32(sel))
		if s-tx.base < tx.sent-tx.base {
			settle(s)
		}
	}
	for tx.base != tx.sent && tx.slot(tx.base).buf == nil {
		tx.base++
	}
	if tx.sent != tx.nextSeq {
		t.pumpLocked(tx, key, t.endpoint(key))
	}
	t.relMu.Unlock()

	if settled > 0 {
		// The peer acked traffic on this lane: it demonstrably delivers.
		t.markLaneUp(key)
	}
}

// handleData runs the receive side of the state machine for one data
// frame: duplicate suppression, the ack policy, reassembly. It returns the
// complete message body when this frame finishes a message, nil otherwise.
// Called with no locks held; the frame's payload aliases the read buffer,
// so anything retained is copied.
func (t *Transport) handleData(key peerKey, f frame) []byte {
	t.relMu.Lock()
	rx := t.rxFor(key)
	if f.base-1 > rx.cum {
		// The sender settled or abandoned everything below its base.
		rx.advance(f.base - 1)
	}
	_, seen := rx.above[f.seq]
	dup := f.seq <= rx.cum || seen
	if !dup && f.seq-rx.cum > maxWindow {
		t.relMu.Unlock()
		t.reg.Counter("wire.rx.out_of_window").Inc()
		return nil
	}
	gap := f.seq != rx.cum+1 || len(rx.above) > 0
	if !dup {
		if f.seq == rx.cum+1 {
			rx.cum++
			rx.advance(rx.cum)
		} else {
			rx.above[f.seq] = struct{}{}
		}
	}
	rx.unacked++
	switch {
	case dup || gap || rx.unacked >= 2:
		t.ackLocked(key, rx)
	case !rx.ackArmed:
		rx.ackArmed = true
		t.clk.AfterFunc(t.opt.rto/4, func() { t.sendAck(key) })
	}
	if dup {
		t.relMu.Unlock()
		t.reg.Counter("wire.rx.dup_drops").Inc()
		return nil
	}
	body := t.reassembleLocked(key, rx, f)
	t.relMu.Unlock()
	return body
}

// advance moves the cumulative point to at least to, then over every
// delivered sequence directly above it.
func (rx *rxState) advance(to uint32) {
	if to > rx.cum {
		rx.cum = to
		for s := range rx.above {
			if s <= to {
				delete(rx.above, s)
			}
		}
	}
	for len(rx.above) > 0 {
		if _, ok := rx.above[rx.cum+1]; !ok {
			break
		}
		delete(rx.above, rx.cum+1)
		rx.cum++
	}
}

// ackFields derives the cumulative ack and its selective bits.
func (rx *rxState) ackFields() (cum, sel uint32) {
	for i := uint32(0); i < 32 && len(rx.above) > 0; i++ {
		if _, ok := rx.above[rx.cum+1+i]; ok {
			sel |= 1 << i
		}
	}
	return rx.cum, sel
}

// ackLocked sends one standalone ack for a lane and marks its received
// data acked. relMu must be held: the ack is assembled in t.ackBuf.
func (t *Transport) ackLocked(key peerKey, rx *rxState) {
	rx.unacked = 0
	ep := t.endpoint(key)
	if ep == nil {
		return
	}
	cum, sel := rx.ackFields()
	t.ackBuf = appendFrame(t.ackBuf[:0], frame{plane: key.plane, flags: flagAck, src: t.node, ack: cum, ackBits: sel})
	t.reg.Counter("wire.tx.acks").Inc()
	t.transmit(key.node, key.plane, ep, t.ackBuf)
}

// sendAck is the delayed-ack timer: it acks whatever data arrived since
// the last ack, unless return traffic or the ack-every-second-frame rule
// already did.
func (t *Transport) sendAck(key peerKey) {
	t.mu.Lock()
	up, closed := t.up, t.closed
	t.mu.Unlock()

	t.relMu.Lock()
	rx := t.rx[key]
	if rx == nil {
		t.relMu.Unlock()
		return
	}
	rx.ackArmed = false
	if rx.unacked > 0 && !closed && up {
		t.ackLocked(key, rx)
	}
	t.relMu.Unlock()
}

// reassembleLocked passes an unfragmented frame's payload through and
// collects fragments until their message is complete. relMu must be held.
func (t *Transport) reassembleLocked(key peerKey, rx *rxState, f frame) []byte {
	if f.flags&flagFrag == 0 {
		return append([]byte(nil), f.payload...)
	}
	t.reg.Counter("wire.rx.frags").Inc()
	base := f.seq - uint32(f.fragIndex)
	r := rx.reasm[base]
	if r == nil {
		r = &reassembly{parts: make([][]byte, f.fragCount)}
		rx.reasm[base] = r
		r.timer = t.clk.AfterFunc(reassemblyExpiry, func() { t.expireReassembly(key, base) })
	}
	if int(f.fragCount) != len(r.parts) || r.parts[f.fragIndex] != nil {
		t.reg.Counter("wire.rx.frag_mismatch").Inc()
		return nil
	}
	r.parts[f.fragIndex] = append([]byte(nil), f.payload...)
	r.have++
	r.size += len(f.payload)
	if r.have < len(r.parts) {
		return nil
	}
	r.timer.Stop()
	delete(rx.reasm, base)
	body := make([]byte, 0, r.size)
	for _, part := range r.parts {
		body = append(body, part...)
	}
	t.reg.Counter("wire.rx.frag_reassembled").Inc()
	return body
}

// expireReassembly discards a partial message whose remaining fragments
// never arrived.
func (t *Transport) expireReassembly(key peerKey, base uint32) {
	t.relMu.Lock()
	rx := t.rx[key]
	if rx == nil {
		t.relMu.Unlock()
		return
	}
	if _, ok := rx.reasm[base]; !ok {
		t.relMu.Unlock()
		return
	}
	delete(rx.reasm, base)
	t.relMu.Unlock()
	t.reg.Counter("wire.rx.frag_timeouts").Inc()
}

// resetReliability stops every reliability timer and discards all lane
// state — the transport-level meaning of node death (Close) or power-off.
func (t *Transport) resetReliability() {
	t.relMu.Lock()
	defer t.relMu.Unlock()
	for _, tx := range t.tx {
		tx.drop()
	}
	for _, rx := range t.rx {
		rx.unacked = 0
		for base, r := range rx.reasm {
			r.timer.Stop()
			delete(rx.reasm, base)
		}
	}
}
