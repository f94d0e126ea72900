package flow

import (
	"encoding/binary"

	"repro/internal/core"
)

// Wire header: exactly the paper's 25 bytes of protocol information,
// shared by every socket-class transport (TCP, reliable UDP, U-Net).
//
//	byte  0      message type (packet kind in the low nibble, send mode in
//	             the high nibble)
//	bytes 1-4    returned credit (freed receiver reservation, piggybacked)
//	bytes 5-24   envelope: source(2) context(2) tag(4) count(4) id(4) aux(4)
//
// id is the sender request for RTS/CTS/acks and on a Data frame; aux
// carries the receive's request name (CTS, Data). Every chunk of a datagram
// payload carries the message's envelope, its count the full size.
const HeaderBytes = core.HeaderWireBytes // 25

// The kind rides in a 4-bit field: one more kind past 15 would bleed into
// the mode nibble and corrupt every frame. The one-sided and fault-tolerance
// protocols grew the space (lock/unlock/grant control, revoke), so guard the
// bound at compile time — this declaration fails to build if the highest
// kind ever exceeds the nibble.
var _ [15 - int(core.PktRevoke)]struct{}

// EncodeHeader serializes one protocol header.
func EncodeHeader(kind core.PacketKind, credit int, env core.Envelope, aux uint32) [HeaderBytes]byte {
	var h [HeaderBytes]byte
	EncodeHeaderInto(h[:], kind, credit, env, aux)
	return h
}

// EncodeHeaderInto serializes one protocol header into dst (which must
// hold at least HeaderBytes). It is EncodeHeader without the array copy,
// for transports assembling frames in pooled scratch buffers.
func EncodeHeaderInto(dst []byte, kind core.PacketKind, credit int, env core.Envelope, aux uint32) {
	dst[0] = byte(kind)&0x0F | byte(env.Mode)<<4
	binary.BigEndian.PutUint32(dst[1:5], uint32(credit))
	binary.BigEndian.PutUint16(dst[5:7], uint16(env.Source))
	binary.BigEndian.PutUint16(dst[7:9], uint16(env.Context))
	binary.BigEndian.PutUint32(dst[9:13], uint32(int32(env.Tag)))
	binary.BigEndian.PutUint32(dst[13:17], uint32(env.Count))
	binary.BigEndian.PutUint32(dst[17:21], uint32(env.SendID))
	binary.BigEndian.PutUint32(dst[21:25], aux)
}

// DecodeHeader parses a protocol header produced by EncodeHeader.
func DecodeHeader(h []byte) (kind core.PacketKind, credit int, env core.Envelope, aux uint32) {
	kind = core.PacketKind(h[0] & 0x0F)
	env.Mode = core.Mode(h[0] >> 4)
	credit = int(binary.BigEndian.Uint32(h[1:5]))
	env.Source = int(binary.BigEndian.Uint16(h[5:7]))
	env.Context = int(binary.BigEndian.Uint16(h[7:9]))
	env.Tag = int(int32(binary.BigEndian.Uint32(h[9:13])))
	env.Count = int(binary.BigEndian.Uint32(h[13:17]))
	env.SendID = int64(binary.BigEndian.Uint32(h[17:21]))
	aux = binary.BigEndian.Uint32(h[21:25])
	return kind, credit, env, aux
}
