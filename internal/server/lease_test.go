package server

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/transport"
)

// udpSession SETUPs and PLAYs the rig's clip over UDP towards cli:20000 and
// returns the server-side session. got collects, by value, every data packet
// the client's port receives (the port releases the packet after the call).
func (r *ctlRig) udpSession(kbps string, got *[]rdt.Data) (*streamSession, *transport.UDPPort) {
	r.t.Helper()
	port := r.listenClientData(got)
	setup := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	setup.Set("Bandwidth", kbps)
	id := r.request(setup).Get("Session")
	play := msgs.Request(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
	play.Set("Session", id)
	if resp := r.request(play); resp.Status != rtsp.StatusOK {
		r.t.Fatalf("play status=%d", resp.Status)
	}
	return r.srv.sessions[id], port
}

func (r *ctlRig) listenClientData(got *[]rdt.Data) *transport.UDPPort {
	return transport.NewStack(r.net, "cli").ListenUDP(20000, func(_ string, payload any, _ int) {
		if pkt, ok := payload.(*rdt.Packet); ok && pkt.Kind == rdt.TypeData {
			*got = append(*got, *pkt.Data)
		}
	})
}

// TestRetransmitWindowHoldsBeforeSend is the record-before-send hazard: a
// video packet the network drops inside Send is released inside Send, so the
// retransmit window must have copied its header first. The client's host
// vanishes for a second (every send to it is dropped at the destination
// lookup, synchronously), comes back and NACKs what it missed: every header
// in the window must carry its own sequence number, and each retransmission
// the fields the window recorded for it.
func TestRetransmitWindowHoldsBeforeSend(t *testing.T) {
	r := newCtlRig(t, 0)
	var got []rdt.Data
	sess, _ := r.udpSession("350", &got)
	r.clock.RunUntil(r.clock.Now() + 3*time.Second)
	if len(got) == 0 {
		t.Fatal("no data reached the client")
	}

	_, _, droppedBefore := r.net.Stats()
	first := sess.videoSeq
	r.net.RemoveHost("cli")
	r.clock.RunUntil(r.clock.Now() + time.Second)
	last := sess.videoSeq
	if _, _, dropped := r.net.Stats(); last-first < 4 || dropped-droppedBefore < uint64(last-first) {
		t.Fatalf("set-up: %d video packets sent into the void, %d packets dropped", last-first, dropped-droppedBefore)
	}
	if n := sess.sentVideo.Len(); uint32(n) != sess.videoSeq-sess.sentFloor {
		t.Fatalf("window holds %d packets for seqs [%d,%d)", n, sess.sentFloor, sess.videoSeq)
	}
	for seq := sess.sentFloor; seq != sess.videoSeq; seq++ {
		if m := sess.sentVideo.Get(uint64(seq)).meta(seq); m.FragCount == 0 {
			t.Fatalf("window entry for seq %d reads %+v: the header of a packet dropped in Send was read after its release", seq, m)
		}
	}

	r.net.AddHost(netsim.HostConfig{Name: "cli", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	got = got[:0]
	port := r.listenClientData(&got)
	nack := &rdt.Packet{Kind: rdt.TypeNack, Nack: &rdt.Nack{Stream: rdt.StreamVideo}}
	for seq := first; seq != first+4; seq++ {
		nack.Nack.Seqs = append(nack.Nack.Seqs, seq)
	}
	sess.pause() // nothing but the retransmissions on the wire
	port.ConnFor("srv:6970").Send(nack, rdt.WireSize(nack))
	r.clock.RunUntil(r.clock.Now() + time.Second)
	if len(got) != 4 {
		t.Fatalf("%d retransmissions for 4 NACKed packets", len(got))
	}
	for i, d := range got {
		seq := first + uint32(i)
		want := sess.sentVideo.Get(uint64(seq)).meta(seq)
		if d.Seq != seq || rdt.MetaOf(&d) != want || d.Stream != rdt.StreamVideo {
			t.Errorf("retransmission %d reads %+v, the window holds %+v", i, d, want)
		}
	}
}

// TestArenaGrowsToTheWorkingSet is the size fence: a minute of UDP streaming
// sends thousands of data packets, and the server's arena stops growing at
// what is in flight — the retransmit window keeps headers, not cells, so a
// few dozen cells, not one per packet of the window.
func TestArenaGrowsToTheWorkingSet(t *testing.T) {
	r := newCtlRig(t, 0)
	var got []rdt.Data
	sess, _ := r.udpSession("350", &got)
	r.clock.RunUntil(r.clock.Now() + time.Minute)
	sent := int(sess.videoSeq + sess.audioSeq)
	if sent < 2000 || sess.sentVideo.Len() < 512 {
		t.Fatalf("only %d data packets in a minute, %d headers in the retransmit window", sent, sess.sentVideo.Len())
	}
	carved, leased := r.srv.cfg.Arena.Cells()
	t.Logf("%d data packets sent; arena carved %d cells, %d on lease", sent, carved, leased)
	if carved > 32 {
		t.Errorf("arena carved %d cells for %d packets: cells are not coming back, or something pins them (a window of cells took 524)", carved, sent)
	}
	if leased > 8 {
		t.Errorf("%d cells on lease with the wire all but idle", leased)
	}
}

// tapConn records, by value, every rdt packet the server sends through it.
type tapConn struct {
	transport.Conn
	datas   []rdt.Data
	repairs []rdt.Repair
}

func (c *tapConn) Send(payload any, size int) error {
	if p, ok := payload.(*rdt.Packet); ok {
		switch p.Kind {
		case rdt.TypeData:
			c.datas = append(c.datas, *p.Data)
		case rdt.TypeRepair:
			r := *p.Repair
			r.Meta = slices.Clone(r.Meta)
			c.repairs = append(c.repairs, r)
		}
	}
	return c.Conn.Send(payload, size)
}

// TestRepairsAndResendsCarryTheSentHeaders: the headers the retransmit window
// records are the ones the wire carried. On a lossy link with FEC on, every
// repair packet's Meta equals the headers of its group's data packets as
// sent, and every retransmission a NACK for the video the client missed
// brings back equals its original field for field.
func TestRepairsAndResendsCarryTheSentHeaders(t *testing.T) {
	r := newRig(t, netsim.Route{OneWayDelay: 10 * time.Millisecond, LossRate: 0.03}, 0)
	r.srv.cfg.FEC = true
	got := map[uint32]bool{}
	port := transport.NewStack(r.net, "cli").ListenUDP(20000, func(_ string, payload any, _ int) {
		if pkt, ok := payload.(*rdt.Packet); ok && pkt.Kind == rdt.TypeData && pkt.Data.Stream == rdt.StreamVideo {
			got[pkt.Data.Seq] = true
		}
	})
	setup := msgs.Request(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	setup.Set("Bandwidth", "350")
	id := r.request(setup).Get("Session")
	sess := r.srv.sessions[id]
	tap := &tapConn{Conn: sess.dataUDP}
	sess.dataUDP = tap
	play := msgs.Request(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
	play.Set("Session", id)
	if resp := r.request(play); resp.Status != rtsp.StatusOK {
		t.Fatalf("play status=%d", resp.Status)
	}
	r.clock.RunUntil(r.clock.Now() + 10*time.Second)

	sent := map[uint32]rdt.Data{}
	for _, d := range tap.datas {
		if d.Stream == rdt.StreamVideo {
			sent[d.Seq] = d
		}
	}
	nack := &rdt.Packet{Kind: rdt.TypeNack, Nack: &rdt.Nack{Stream: rdt.StreamVideo}}
	for seq := sess.sentFloor; seq != sess.videoSeq && len(nack.Nack.Seqs) < rdt.MaxNackSeqs; seq++ {
		if !got[seq] {
			nack.Nack.Seqs = append(nack.Nack.Seqs, seq)
		}
	}
	if len(tap.repairs) < 10 || len(nack.Nack.Seqs) < 4 {
		t.Fatalf("set-up: %d repair packets sent, %d video packets lost in %d", len(tap.repairs), len(nack.Nack.Seqs), len(sent))
	}
	originals := len(tap.datas)
	// Nothing but the retransmissions on the wire, and the NACK sent three
	// times: it crosses the lossy link too.
	sess.pause()
	for range 3 {
		port.ConnFor("srv:6970").Send(nack, rdt.WireSize(nack))
		r.clock.RunUntil(r.clock.Now() + time.Second)
	}

	for _, rep := range tap.repairs {
		if int(rep.Group) != fecGroup || len(rep.Meta) != fecGroup {
			t.Fatalf("repair at %d covers %d packets with %d headers, want %d", rep.BaseSeq, rep.Group, len(rep.Meta), fecGroup)
		}
		pad := 0
		for i, m := range rep.Meta {
			d, ok := sent[rep.BaseSeq+uint32(i)]
			if !ok || m != rdt.MetaOf(&d) {
				t.Fatalf("repair at %d: member %d reads %+v, the packet sent was %+v", rep.BaseSeq, i, m, d)
			}
			pad = max(pad, d.PadLen)
		}
		if rep.PadLen != pad {
			t.Errorf("repair at %d pads %d bytes, its longest member %d", rep.BaseSeq, rep.PadLen, pad)
		}
	}
	resent := tap.datas[originals:]
	t.Logf("%d video packets sent, %d repair packets checked, %d lost packets NACKed, %d retransmissions checked",
		len(sent), len(tap.repairs), len(nack.Nack.Seqs), len(resent))
	if len(resent) < len(nack.Nack.Seqs) {
		t.Fatalf("%d retransmissions for %d NACKed packets", len(resent), len(nack.Nack.Seqs))
	}
	for _, d := range resent {
		if orig, ok := sent[d.Seq]; !ok || !reflect.DeepEqual(d, orig) {
			t.Errorf("retransmission of seq %d reads %+v, the original was %+v", d.Seq, d, orig)
		}
	}
}
