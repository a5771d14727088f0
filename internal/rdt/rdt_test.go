package rdt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b, err := Encode(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(b) != WireSize(p) {
		t.Fatalf("WireSize=%d but encoding is %d bytes", WireSize(p), len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestDataRoundTrip(t *testing.T) {
	d := &Data{
		Stream: StreamVideo, Seq: 42, MediaTime: 123456, Flags: FlagKeyframe,
		EncRate: 225, FrameIndex: 7, FragIndex: 1, FragCount: 3,
		Payload: []byte("frame-bytes"),
	}
	got := roundTrip(t, &Packet{Kind: TypeData, Data: d})
	g := got.Data
	if g.Stream != d.Stream || g.Seq != d.Seq || g.MediaTime != d.MediaTime ||
		g.Flags != d.Flags || g.EncRate != d.EncRate || g.FrameIndex != d.FrameIndex ||
		g.FragIndex != d.FragIndex || g.FragCount != d.FragCount ||
		!bytes.Equal(g.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, d)
	}
}

func TestDataPadLenEquivalence(t *testing.T) {
	// A PadLen packet must encode to the same size as a real zero payload
	// and decode to those zeros.
	pad := &Packet{Kind: TypeData, Data: &Data{Stream: StreamVideo, Seq: 1, PadLen: 100}}
	real := &Packet{Kind: TypeData, Data: &Data{Stream: StreamVideo, Seq: 1, Payload: make([]byte, 100)}}
	bp, _ := Encode(pad)
	br, _ := Encode(real)
	// FragCount defaults to 1 on the wire for both.
	if !bytes.Equal(bp, br) {
		t.Fatal("PadLen encoding differs from explicit zero payload")
	}
	if WireSize(pad) != WireSize(real) {
		t.Fatal("WireSize differs between PadLen and explicit payload")
	}
	got, err := Decode(bp)
	if err != nil || got.Data.PayloadLen() != 100 {
		t.Fatalf("decode: %v len=%d", err, got.Data.PayloadLen())
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := &Report{Expected: 30, Lost: 2, RateKbps: 225, JitterMs: 18, BufferMs: 6200, RTTMs: 95}
	got := roundTrip(t, &Packet{Kind: TypeReport, Report: r})
	if *got.Report != *r {
		t.Fatalf("report mismatch: %+v vs %+v", got.Report, r)
	}
}

func TestRepairRoundTripWithMeta(t *testing.T) {
	rp := &Repair{
		Stream: StreamVideo, BaseSeq: 100, Group: 2,
		Meta: []RepairMeta{
			{Seq: 100, FrameIndex: 50, MediaTime: 5000, FragIndex: 0, FragCount: 1, Flags: FlagKeyframe, EncRate: 150, Size: 800},
			{Seq: 101, FrameIndex: 51, MediaTime: 5066, FragIndex: 0, FragCount: 1, EncRate: 150, Size: 300},
		},
		Parity: []byte{1, 2, 3, 4},
	}
	got := roundTrip(t, &Packet{Kind: TypeRepair, Repair: rp})
	g := got.Repair
	if g.BaseSeq != 100 || g.Group != 2 || len(g.Meta) != 2 {
		t.Fatalf("repair header mismatch: %+v", g)
	}
	if g.Meta[0] != rp.Meta[0] || g.Meta[1] != rp.Meta[1] {
		t.Fatalf("meta mismatch: %+v", g.Meta)
	}
	if m, ok := g.MetaFor(101); !ok || m.Size != 300 {
		t.Fatal("MetaFor lookup failed")
	}
	if _, ok := g.MetaFor(999); ok {
		t.Fatal("MetaFor should miss uncovered seq")
	}
}

func TestBufferStateAndEOSRoundTrip(t *testing.T) {
	bs := roundTrip(t, &Packet{Kind: TypeBufferState, BufferState: &BufferState{Ms: 4200, Target: 8000}})
	if bs.BufferState.Ms != 4200 || bs.BufferState.Target != 8000 {
		t.Fatal("bufferstate mismatch")
	}
	eos := roundTrip(t, &Packet{Kind: TypeEndOfStream, EOS: &EndOfStream{FinalSeq: 999}})
	if eos.EOS.FinalSeq != 999 {
		t.Fatal("eos mismatch")
	}
}

func TestNackRoundTrip(t *testing.T) {
	nk := &Nack{Stream: StreamVideo, Seqs: []uint32{5, 9, 11}}
	got := roundTrip(t, &Packet{Kind: TypeNack, Nack: nk})
	if got.Nack.Stream != StreamVideo || len(got.Nack.Seqs) != 3 || got.Nack.Seqs[2] != 11 {
		t.Fatalf("nack mismatch: %+v", got.Nack)
	}
}

func TestNackTooManySeqs(t *testing.T) {
	seqs := make([]uint32, MaxNackSeqs+1)
	if _, err := Encode(&Packet{Kind: TypeNack, Nack: &Nack{Seqs: seqs}}); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, _ := Encode(&Packet{Kind: TypeReport, Report: &Report{Expected: 10}})
	// Flip a body byte: checksum must catch it.
	b[len(b)-1] ^= 0xFF
	if _, err := Decode(b); err != ErrBadChecksum {
		t.Fatalf("want ErrBadChecksum, got %v", err)
	}
}

func TestDecodeRejectsBadMagicVersionTruncation(t *testing.T) {
	b, _ := Encode(&Packet{Kind: TypeEndOfStream, EOS: &EndOfStream{}})
	bad := append([]byte(nil), b...)
	bad[0] = 0x00
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = append([]byte(nil), b...)
	bad[1] = 99
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	if _, err := Decode(b[:3]); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
}

func TestEncodeNilUnionField(t *testing.T) {
	for _, kind := range []Type{TypeData, TypeReport, TypeRepair, TypeBufferState, TypeEndOfStream, TypeNack} {
		if _, err := Encode(&Packet{Kind: kind}); err == nil {
			t.Errorf("kind %v with nil body should fail", kind)
		}
	}
	if _, err := Encode(&Packet{Kind: Type(77)}); err != ErrBadType {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	d := &Data{PadLen: MaxPayload + 1}
	if _, err := Encode(&Packet{Kind: TypeData, Data: d}); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// Property: Data packets round-trip for arbitrary field values, and
// WireSize always equals the encoding length.
func TestPropertyDataRoundTrip(t *testing.T) {
	f := func(stream bool, seq, mt, fi uint32, flags, fragIdx uint8, fragCount uint8, enc uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		if fragCount == 0 {
			fragCount = 1
		}
		s := StreamAudio
		if stream {
			s = StreamVideo
		}
		d := &Data{Stream: s, Seq: seq, MediaTime: mt, FrameIndex: fi, Flags: flags,
			FragIndex: fragIdx, FragCount: fragCount, EncRate: enc, Payload: payload}
		p := &Packet{Kind: TypeData, Data: d}
		b, err := Encode(p)
		if err != nil || len(b) != WireSize(p) {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		g := got.Data
		return g.Seq == seq && g.MediaTime == mt && g.FrameIndex == fi &&
			g.Flags == flags && g.EncRate == enc && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeData: "DATA", TypeReport: "REPORT", TypeRepair: "REPAIR",
		TypeBufferState: "BUFFERSTATE", TypeEndOfStream: "EOS", TypeNack: "NACK",
	} {
		if typ.String() != want {
			t.Errorf("%d.String()=%q want %q", typ, typ.String(), want)
		}
	}
}
