package packet

import (
	"testing"
	"testing/quick"
)

func samplePacket() Packet {
	return Packet{
		SrcMAC:       [6]byte{1, 2, 3, 4, 5, 6},
		DstMAC:       [6]byte{7, 8, 9, 10, 11, 12},
		SrcIP:        0x0a000001,
		DstIP:        0x0a000002,
		SrcPort:      4242,
		DstPort:      80,
		Proto:        ProtoUDP,
		PayloadBytes: 22,
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, HeaderBytes)
	if err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestMarshalParsePropertyRoundTrip(t *testing.T) {
	check := func(srcIP, dstIP uint32, srcPort, dstPort uint16, tcp bool, payload uint8) bool {
		p := Packet{
			SrcIP: srcIP, DstIP: dstIP,
			SrcPort: srcPort, DstPort: dstPort,
			Proto:        ProtoUDP,
			PayloadBytes: int(payload),
		}
		if tcp {
			p.Proto = ProtoTCP
		}
		buf := make([]byte, HeaderBytes)
		if err := p.Marshal(buf); err != nil {
			return false
		}
		got, err := parse(buf)
		return err == nil && got == p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := parse(make([]byte, 10)); err != errTruncated {
		t.Fatalf("truncated err = %v", err)
	}
	p := samplePacket()
	buf := make([]byte, HeaderBytes)
	p.Marshal(buf)
	buf[12], buf[13] = 0x86, 0xDD // IPv6 ethertype
	if _, err := parse(buf); err != errNotIPv4 {
		t.Fatalf("non-IPv4 err = %v", err)
	}
	p.Marshal(buf)
	buf[14] = 0x46 // IHL 6
	if _, err := parse(buf); err != errBadIHL {
		t.Fatalf("IHL err = %v", err)
	}
	p.Marshal(buf)
	buf[23] = 1 // ICMP
	if _, err := parse(buf); err != errUnknownProto {
		t.Fatalf("proto err = %v", err)
	}
}

func TestMarshalBufferTooSmall(t *testing.T) {
	p := samplePacket()
	if err := p.Marshal(make([]byte, 10)); err == nil {
		t.Fatal("undersized marshal buffer accepted")
	}
}

func TestFiveTuplePackUnpack(t *testing.T) {
	check := func(srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) bool {
		tup := FiveTuple{srcIP, dstIP, srcPort, dstPort, proto}
		return unpackFiveTuple(tup.Packed()) == tup
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyExtraction(t *testing.T) {
	p := samplePacket()
	k := p.Key()
	if k.SrcIP != p.SrcIP || k.DstPort != p.DstPort || k.Proto != ProtoUDP {
		t.Fatalf("key = %+v", k)
	}
	if len(k.Packed()) != KeyBytes {
		t.Fatalf("packed key length = %d", len(k.Packed()))
	}
}

func TestPutHeaderKeyMatchesMarshalWindow(t *testing.T) {
	check := func(srcIP, dstIP uint32, srcPort, dstPort uint16, tcp bool) bool {
		tup := FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: ProtoUDP}
		if tcp {
			tup.Proto = ProtoTCP
		}
		p := Packet{SrcIP: tup.SrcIP, DstIP: tup.DstIP, SrcPort: tup.SrcPort, DstPort: tup.DstPort, Proto: tup.Proto}
		var wire [HeaderBytes]byte
		if err := p.Marshal(wire[:]); err != nil {
			return false
		}
		var got [HeaderKeyLen]byte
		tup.PutHeaderKey(got[:])
		want := wire[HeaderKeyOff : HeaderKeyOff+HeaderKeyLen]
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFiveTupleString(t *testing.T) {
	tup := FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: 6}
	want := "10.0.0.1:1234->192.168.1.1:80/6"
	if got := tup.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestDistinctTuplesPackDistinct(t *testing.T) {
	a := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	b := a
	b.Proto = 17
	pa, pb := a.Packed(), b.Packed()
	same := true
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct tuples packed identically")
	}
}
