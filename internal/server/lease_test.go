package server

import (
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
	setup := rtsp.NewRequest(rtsp.MethodSetup, "rtsp://srv/clip000.rm", 0)
	setup.Set("Transport", rtsp.TransportSpec{Protocol: "udp", ClientDataAddr: "cli:20000"}.Format())
	setup.Set("Bandwidth", kbps)
	id := r.request(setup).Get("Session")
	play := rtsp.NewRequest(rtsp.MethodPlay, "rtsp://srv/clip000.rm", 0)
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

// TestRetransmitWindowHoldsBeforeSend is the hold-before-send hazard: a video
// packet the network drops inside Send is released inside Send, so the
// retransmit window must have taken its reference first. The client's host
// vanishes for a second (every send to it is dropped at the destination
// lookup, synchronously), comes back and NACKs what it missed: every packet
// in the window must still carry its own sequence number, and each
// retransmission the fields the window remembers for it.
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
		if d := sess.sentVideo.Get(uint64(seq)); d == nil || d.Seq != seq || d.FragCount == 0 {
			t.Fatalf("window entry for seq %d reads %+v: a packet dropped in Send was recycled under the window", seq, d)
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
	port.SendTo("srv:6970", nack, rdt.WireSize(nack))
	r.clock.RunUntil(r.clock.Now() + time.Second)
	if len(got) != 4 {
		t.Fatalf("%d retransmissions for 4 NACKed packets", len(got))
	}
	for i, d := range got {
		want := sess.sentVideo.Get(uint64(first) + uint64(i))
		if d.Seq != first+uint32(i) || d.FrameIndex != want.FrameIndex || d.MediaTime != want.MediaTime || d.PadLen != want.PadLen {
			t.Errorf("retransmission %d reads %+v, the window holds %+v", i, d, *want)
		}
	}
}

// TestArenaGrowsToTheWorkingSet is the size fence: a minute of UDP streaming
// sends thousands of data packets, and the session's arena stops growing at
// the retransmit window plus what is in flight — a handful of chunks, not one
// per 64 packets sent.
func TestArenaGrowsToTheWorkingSet(t *testing.T) {
	r := newCtlRig(t, 0)
	var got []rdt.Data
	sess, _ := r.udpSession("350", &got)
	r.clock.RunUntil(r.clock.Now() + time.Minute)
	sent := int(sess.videoSeq + sess.audioSeq)
	if sent < 2000 {
		t.Fatalf("only %d data packets in a minute", sent)
	}
	carved, leased := sess.arena.Cells()
	t.Logf("%d data packets sent; arena carved %d cells, %d on lease", sent, carved, leased)
	// 512 Data cells in the window, a few in flight, and their wrappers,
	// repairs and the EOS: well under two cells per packet of the window.
	if carved > 800 {
		t.Errorf("arena carved %d cells for %d packets: cells are not coming back (the parent carved one Data and one wrapper per packet, %d)", carved, sent, 2*sent)
	}
	if want := sess.sentVideo.Len(); leased < want || leased > want+64 {
		t.Errorf("%d cells on lease with %d packets in the retransmit window and the wire all but idle", leased, want)
	}
}
