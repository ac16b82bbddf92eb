package packet

import (
	"encoding/binary"
	"errors"
)

// The decoders below are the references the tests hold Packet.Marshal and
// FiveTuple.Pack to: the datapath only ever encodes, so they live here.

var (
	errTruncated    = errors.New("packet: truncated header")
	errNotIPv4      = errors.New("packet: not IPv4")
	errBadIHL       = errors.New("packet: unsupported IP header length")
	errUnknownProto = errors.New("packet: unsupported L4 protocol")
)

// parse decodes headers from wire bytes.
func parse(buf []byte) (Packet, error) {
	var p Packet
	if len(buf) < HeaderBytes {
		return p, errTruncated
	}
	copy(p.DstMAC[:], buf[0:6])
	copy(p.SrcMAC[:], buf[6:12])
	if binary.BigEndian.Uint16(buf[12:]) != EtherTypeIPv4 {
		return p, errNotIPv4
	}
	if buf[14] != 0x45 {
		return p, errBadIHL
	}
	p.Proto = buf[23]
	if p.Proto != ProtoTCP && p.Proto != ProtoUDP {
		return p, errUnknownProto
	}
	p.SrcIP = binary.BigEndian.Uint32(buf[26:])
	p.DstIP = binary.BigEndian.Uint32(buf[30:])
	p.SrcPort = binary.BigEndian.Uint16(buf[34:])
	p.DstPort = binary.BigEndian.Uint16(buf[36:])
	totalLen := int(binary.BigEndian.Uint16(buf[16:]))
	p.PayloadBytes = totalLen - 28
	if p.PayloadBytes < 0 {
		p.PayloadBytes = 0
	}
	return p, nil
}

// unpackFiveTuple decodes a packed tuple.
func unpackFiveTuple(buf []byte) FiveTuple {
	return FiveTuple{
		SrcIP:   binary.LittleEndian.Uint32(buf[0:]),
		DstIP:   binary.LittleEndian.Uint32(buf[4:]),
		SrcPort: binary.LittleEndian.Uint16(buf[8:]),
		DstPort: binary.LittleEndian.Uint16(buf[10:]),
		Proto:   buf[12],
	}
}
