// Package packet models the network packets a virtual switch classifies:
// Ethernet/IPv4/UDP-or-TCP headers, their wire serialization, and the
// 5-tuple flow key extraction the datapath performs per packet.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers (IPv4 protocol field).
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// HeaderBytes is the serialized header size: 14 (Ethernet) + 20 (IPv4) +
// 8 (UDP-sized L4 prefix; TCP uses the same first 8 bytes for ports).
const HeaderBytes = 42

// EtherTypeIPv4 is the only ethertype the datapath handles.
const EtherTypeIPv4 uint16 = 0x0800

// Packet is one network packet's parsed header plus payload size. Virtual
// switch performance depends only on headers (paper §3.1 note 1), so no
// payload bytes are carried.
type Packet struct {
	SrcMAC, DstMAC [6]byte
	SrcIP, DstIP   uint32
	SrcPort        uint16
	DstPort        uint16
	Proto          uint8
	PayloadBytes   int
}

// FiveTuple is the canonical flow key: src/dst IP, src/dst port, protocol,
// packed into 13 bytes.
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// KeyBytes is the packed five-tuple size.
const KeyBytes = 13

// Key returns the packet's five-tuple.
func (p *Packet) Key() FiveTuple {
	return FiveTuple{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Pack serialises the tuple into buf (at least KeyBytes long).
func (t FiveTuple) Pack(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], t.SrcIP)
	binary.LittleEndian.PutUint32(buf[4:], t.DstIP)
	binary.LittleEndian.PutUint16(buf[8:], t.SrcPort)
	binary.LittleEndian.PutUint16(buf[10:], t.DstPort)
	buf[12] = t.Proto
}

// Packed returns the tuple as a fresh key slice.
func (t FiveTuple) Packed() []byte {
	buf := make([]byte, KeyBytes)
	t.Pack(buf)
	return buf
}

func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort, t.Proto)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Marshal serialises the packet's headers into buf (>= HeaderBytes).
// Checksums are zeroed: the simulated switch never verifies them, as real
// virtual switches leave them to NIC offloads.
func (p *Packet) Marshal(buf []byte) error {
	if len(buf) < HeaderBytes {
		return errors.New("packet: buffer too small")
	}
	copy(buf[0:6], p.DstMAC[:])
	copy(buf[6:12], p.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:], EtherTypeIPv4)
	// IPv4 header.
	buf[14] = 0x45 // version 4, IHL 5
	buf[15] = 0
	totalLen := 20 + 8 + p.PayloadBytes
	binary.BigEndian.PutUint16(buf[16:], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[18:], 0) // identification
	binary.BigEndian.PutUint16(buf[20:], 0) // flags+fragment
	buf[22] = 64                            // TTL
	buf[23] = p.Proto
	binary.BigEndian.PutUint16(buf[24:], 0) // checksum (offloaded)
	binary.BigEndian.PutUint32(buf[26:], p.SrcIP)
	binary.BigEndian.PutUint32(buf[30:], p.DstIP)
	// L4 ports + length/seq prefix.
	binary.BigEndian.PutUint16(buf[34:], p.SrcPort)
	binary.BigEndian.PutUint16(buf[36:], p.DstPort)
	binary.BigEndian.PutUint32(buf[38:], 0)
	return nil
}

// HeaderKeyOff and HeaderKeyLen delimit the contiguous wire-header region
// that uniquely identifies a flow in this packet format (IP id through the
// L4 ports: id/flags/TTL are constant in generated traffic, so the region is
// equivalent to the five-tuple). Datapaths that key hash tables on raw
// header bytes — the way RSS-style header hashing does — use this window,
// which lets a HALO lookup point its key address straight into the
// DDIO-delivered packet buffer.
const (
	HeaderKeyOff = 18
	HeaderKeyLen = 20
)

// PutHeaderKey writes the canonical raw-header key for a five-tuple into buf
// (at least HeaderKeyLen long): the exact HeaderKeyLen bytes a marshalled
// packet with this tuple carries at HeaderKeyOff. Hot paths use this with a
// reused buffer; HeaderKey wraps it when a fresh slice is wanted.
func (t FiveTuple) PutHeaderKey(buf []byte) {
	_ = buf[HeaderKeyLen-1]
	binary.BigEndian.PutUint32(buf[0:], 0) // IP identification + flags/fragment
	buf[4] = 64                            // TTL
	buf[5] = t.Proto
	binary.BigEndian.PutUint16(buf[6:], 0) // checksum (offloaded)
	binary.BigEndian.PutUint32(buf[8:], t.SrcIP)
	binary.BigEndian.PutUint32(buf[12:], t.DstIP)
	binary.BigEndian.PutUint16(buf[16:], t.SrcPort)
	binary.BigEndian.PutUint16(buf[18:], t.DstPort)
}

// HeaderKey returns the canonical raw-header key for a five-tuple as a fresh
// slice.
func (t FiveTuple) HeaderKey() []byte {
	buf := make([]byte, HeaderKeyLen)
	t.PutHeaderKey(buf)
	return buf
}
