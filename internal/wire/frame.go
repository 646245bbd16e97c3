package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// Datagram framing, version 4: exactly one frame per datagram. The header
// carries what the reliability layer needs (reliable.go): a sequence
// number, the sender's window base — the lowest sequence it has not yet
// seen settled — a cumulative ack with a selective bitmap above it, and
// fragmentation. Frames of older versions (v1–v3) are rejected with a
// version error before their fields are misread.
//
//	offset  size  field
//	0       2     magic "PX"
//	2       1     format version (currently 4)
//	3       1     plane index the sender transmitted on
//	4       1     flags (data / ack / frag / ping / pong, see below)
//	5       3     reserved, must be zero
//	8       4     source node ID, big endian
//	12      4     sequence number (flagData; 0 otherwise)
//	16      4     window base: the sender's lowest unsettled sequence,
//	              1 <= base <= seq (flagData; 0 otherwise)
//	20      4     ack: every peer sequence <= ack delivered (flagAck)
//	24      4     ackBits: bit i set = seq ack+1+i also delivered (flagAck)
//	28      2     fragment index (flagFrag; 0 otherwise)
//	30      2     fragment count (flagFrag; 1 for unfragmented data)
//	32      4     payload length, big endian; must end the datagram
//	36      n     payload: one codec body (codec.AppendMessage) or one
//	              fragment of it
//
// The source node is in the header — not inferred from the UDP source
// address — because acks must be routed through the address book and
// ack-only frames carry no decodable body to name their sender.
const (
	frameMagic0  = 'P'
	frameMagic1  = 'X'
	frameVersion = 4
	headerSize   = 36

	// flagData marks a frame that carries (a fragment of) a kernel message
	// and occupies a sequence number; the receiver acks it and suppresses
	// duplicates. flagAck marks the ack/ackBits fields as valid — set on
	// standalone ack frames and piggybacked on return data traffic.
	// flagFrag marks the fragment fields as valid; fragments of one message
	// occupy consecutive sequence numbers, so seq-fragIndex identifies the
	// group. flagPing and flagPong are standalone lane probes (see
	// health.go): a ping asks "does this (peer, plane) lane deliver?", the
	// pong answering it is the proof that marks a down lane up again.
	flagData = 0x01
	flagAck  = 0x02
	flagFrag = 0x04
	flagPing = 0x08
	flagPong = 0x10

	// maxFrameSize bounds a datagram: the largest UDP payload that reliably
	// survives loopback and well-configured LANs. The transport's MTU
	// option may only shrink below this; larger kernel messages fragment.
	maxFrameSize = 60 * 1024

	// maxFragments bounds one message's fragment count (and with it the
	// memory a reassembly buffer can pin): 4096 × ~60 KiB ≈ 240 MiB worst
	// case, far above any kernel payload.
	maxFragments = 4096
)

// frame is the parsed form of one datagram.
type frame struct {
	plane     int
	flags     byte
	src       types.NodeID
	seq       uint32
	base      uint32
	ack       uint32
	ackBits   uint32
	fragIndex uint16
	fragCount uint16
	payload   []byte
}

func (f *frame) isData() bool { return f.flags&flagData != 0 }
func (f *frame) hasAck() bool { return f.flags&flagAck != 0 }

// appendFrame serialises a frame onto dst — into a pooled buffer, or a
// fresh allocation via encodeFrame. The payload is copied, so the
// assembled bytes never alias caller state.
func appendFrame(dst []byte, f frame) []byte {
	var hdr [headerSize]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = frameMagic0, frameMagic1, frameVersion, byte(f.plane)
	hdr[4] = f.flags
	binary.BigEndian.PutUint32(hdr[8:12], uint32(f.src))
	binary.BigEndian.PutUint32(hdr[12:16], f.seq)
	binary.BigEndian.PutUint32(hdr[16:20], f.base)
	binary.BigEndian.PutUint32(hdr[20:24], f.ack)
	binary.BigEndian.PutUint32(hdr[24:28], f.ackBits)
	binary.BigEndian.PutUint16(hdr[28:30], f.fragIndex)
	binary.BigEndian.PutUint16(hdr[30:32], f.fragCount)
	binary.BigEndian.PutUint32(hdr[32:36], uint32(len(f.payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.payload...)
}

// stampFrame writes the fields a data frame takes at transmission time,
// not at encoding: the sender's current window base and, when ack is
// set, a piggybacked ack. b is an encoded data frame.
func stampFrame(b []byte, base uint32, ack bool, cum, sel uint32) {
	binary.BigEndian.PutUint32(b[16:20], base)
	if ack {
		b[4] |= flagAck
		binary.BigEndian.PutUint32(b[20:24], cum)
		binary.BigEndian.PutUint32(b[24:28], sel)
	}
}

// encodeFrame serialises a frame into a fresh buffer — the cold paths
// (probes, tests) that don't go through the pooled assembly.
func encodeFrame(f frame) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(f.payload)), f)
}

// parseFrame validates one datagram, which must hold exactly one frame.
// It never panics, whatever the input: a live node must survive any byte
// sequence thrown at its sockets. The returned frame's payload aliases
// data.
func parseFrame(data []byte) (frame, error) {
	// Magic and version come before the length check: a v1 frame is shorter
	// than a v4 header, and it must be rejected as the wrong version, not as
	// a truncated v4 frame.
	if len(data) < 3 {
		return frame{}, fmt.Errorf("wire: short datagram (%d bytes)", len(data))
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return frame{}, fmt.Errorf("wire: bad magic %#x%#x", data[0], data[1])
	}
	if data[2] != frameVersion {
		return frame{}, fmt.Errorf("wire: unsupported frame version %d (want %d)", data[2], frameVersion)
	}
	if len(data) < headerSize {
		return frame{}, fmt.Errorf("wire: short datagram (%d bytes)", len(data))
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return frame{}, fmt.Errorf("wire: nonzero reserved bytes")
	}
	if n := binary.BigEndian.Uint32(data[32:36]); uint64(n) != uint64(len(data)-headerSize) {
		return frame{}, fmt.Errorf("wire: length header %d, %d bytes follow", n, len(data)-headerSize)
	}
	f := frame{
		plane:     int(data[3]),
		flags:     data[4],
		src:       types.NodeID(binary.BigEndian.Uint32(data[8:12])),
		seq:       binary.BigEndian.Uint32(data[12:16]),
		base:      binary.BigEndian.Uint32(data[16:20]),
		ack:       binary.BigEndian.Uint32(data[20:24]),
		ackBits:   binary.BigEndian.Uint32(data[24:28]),
		fragIndex: binary.BigEndian.Uint16(data[28:30]),
		fragCount: binary.BigEndian.Uint16(data[30:32]),
		payload:   data[headerSize:],
	}
	if f.flags&^(flagData|flagAck|flagFrag|flagPing|flagPong) != 0 {
		return frame{}, fmt.Errorf("wire: unknown flags %#x", f.flags)
	}
	switch {
	case f.flags&(flagPing|flagPong) != 0:
		// Probes are strictly standalone: nothing piggybacks on them.
		if (f.flags != flagPing && f.flags != flagPong) || len(f.payload) != 0 ||
			f.seq != 0 || f.base != 0 || f.ack != 0 || f.ackBits != 0 || f.fragIndex != 0 || f.fragCount != 0 {
			return frame{}, fmt.Errorf("wire: malformed probe frame")
		}
	case f.isData():
		if f.seq == 0 {
			return frame{}, fmt.Errorf("wire: data frame with zero sequence")
		}
		if f.base == 0 || f.base > f.seq {
			return frame{}, fmt.Errorf("wire: window base %d outside 1..seq %d", f.base, f.seq)
		}
		if len(f.payload) == 0 {
			return frame{}, fmt.Errorf("wire: data frame with empty payload")
		}
		if f.flags&flagFrag != 0 {
			if f.fragCount < 2 || f.fragCount > maxFragments || f.fragIndex >= f.fragCount {
				return frame{}, fmt.Errorf("wire: bad fragment %d/%d", f.fragIndex, f.fragCount)
			}
			if uint32(f.fragIndex) > f.seq-1 {
				return frame{}, fmt.Errorf("wire: fragment index %d exceeds sequence %d", f.fragIndex, f.seq)
			}
		} else if f.fragIndex != 0 || f.fragCount != 1 {
			return frame{}, fmt.Errorf("wire: unfragmented frame with fragment fields %d/%d", f.fragIndex, f.fragCount)
		}
	case f.hasAck():
		if len(f.payload) != 0 || f.seq != 0 || f.base != 0 || f.fragIndex != 0 || f.fragCount != 0 {
			return frame{}, fmt.Errorf("wire: malformed ack-only frame")
		}
	default:
		return frame{}, fmt.Errorf("wire: frame carries neither data nor ack")
	}
	return f, nil
}
