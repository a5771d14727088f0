package transport

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// midDial dials a:100 from b, stops 1 ms in — SYN on the wire, timeout and
// both retries armed — and returns the dial's local address with the clock
// and the dialing stack each walked into its own snapshot.
func midDial(t *testing.T) (laddr string, clockSnap, stackSnap []byte) {
	t.Helper()
	clock, _, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	laddr = sb.DialTCP("a:100", func(Conn, error) { t.Error("the original dial's continuation ran") })
	clock.RunUntil(time.Millisecond)
	clockSnap, stackSnap = snapshot(t, clock, sb)
	return laddr, clockSnap, stackSnap
}

// snapshot walks the clock and one stack each into its own snapshot.
func snapshot(t *testing.T, clock *simclock.Clock, s *Stack) (clockSnap, stackSnap []byte) {
	t.Helper()
	var cbuf, sbuf bytes.Buffer
	clock.Sync(snap.NewEncoder(&cbuf))
	enc := snap.NewEncoder(&sbuf)
	s.Sync(enc, NewSnapCtx(nil))
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), sbuf.Bytes()
}

// restoreMidDial rebuilds the pair and overlays the snapshots; the SYN that
// was on the wire is not restored, so the dial completes on its first retry.
func restoreMidDial(t *testing.T, clockSnap, stackSnap []byte) (*simclock.Clock, *Stack, *Stack) {
	t.Helper()
	clock, sa, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	clock.Sync(snap.NewDecoder(clockSnap))
	dec := snap.NewDecoder(stackSnap)
	sb.Sync(dec, NewSnapCtx(nil))
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	return clock, sa, sb
}

func TestRestoredDialRunsItsReattachedContinuation(t *testing.T) {
	laddr, clockSnap, stackSnap := midDial(t)
	clock, sa, sb := restoreMidDial(t, clockSnap, stackSnap)
	sa.Listen(100, func(Conn) {})

	if err := sb.ReattachDial("b:1", func(Conn, error) {}); err == nil || !strings.Contains(err.Error(), "no in-flight dial") {
		t.Fatalf("re-attaching a dial the snapshot does not hold: %v", err)
	}
	var got Conn
	if err := sb.ReattachDial(laddr, func(c Conn, err error) { got = c }); err != nil {
		t.Fatal(err)
	}
	if err := sb.ReattachDial(laddr, func(Conn, error) {}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("re-attaching one dial twice: %v", err)
	}
	clock.RunUntil(3 * time.Second)
	if got == nil || got.LocalAddr() != laddr {
		t.Fatalf("re-attached continuation got %v, want the conn dialed from %s", got, laddr)
	}
	if n := clock.Pending(); n != 0 {
		t.Fatalf("%d events still pending after the dial resolved; its timers were not cancelled", n)
	}
}

// A restored dial nobody re-attaches was abandoned before the checkpoint:
// the conn is closed as soon as it establishes.
func TestRestoredDialWithoutOwnerClosesOnEstablish(t *testing.T) {
	_, clockSnap, stackSnap := midDial(t)
	clock, sa, _ := restoreMidDial(t, clockSnap, stackSnap)
	var accepted Conn
	sa.Listen(100, func(c Conn) { accepted = c })
	clock.RunUntil(3 * time.Second)
	if accepted == nil || !ConnClosed(accepted) {
		t.Fatalf("server side of the abandoned dial: %v, want accepted and then closed by the dialer's FIN", accepted)
	}
}

// A dialer whose host leaves mid-handshake loses the conn's packet handler
// with the host, but nothing cancels the dial. It restores as it was: onto the
// still-absent host without complaint, and — once the same name is attached
// again — sending its SYN retries while deaf to the SYN-ACKs they draw, until
// the timeout ends it.
func TestOrphanedDialRestoresDeaf(t *testing.T) {
	route := netsim.Route{OneWayDelay: 20 * time.Millisecond}
	clock, _, sb := newPair(t, route)
	sb.DialTCP("a:100", func(Conn, error) {})
	clock.RunUntil(time.Millisecond)
	sb.net.RemoveHost("b")
	clockSnap, stackSnap := snapshot(t, clock, sb)

	clock, sa, sb := newPair(t, route)
	sb.net.RemoveHost("b")
	clock.Sync(snap.NewDecoder(clockSnap))
	dec := snap.NewDecoder(stackSnap)
	sb.Sync(dec, NewSnapCtx(nil))
	if err := dec.Err(); err != nil {
		t.Fatalf("restoring a dial onto its departed host: %v", err)
	}
	var accepted Conn
	sa.Listen(100, func(c Conn) { accepted = c })
	sb.net.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessDSLCable)})
	clock.RunUntil(dialTimeout + time.Second)
	if accepted == nil || ConnClosed(accepted) {
		t.Fatalf("server side of the orphaned dial: accepted=%v, want accepted off a retried SYN and never closed — the dialer must not hear the SYN-ACK", accepted != nil)
	}
	if n := sb.DialsInFlight(); n != 0 {
		t.Fatalf("%d dials in flight after the timeout", n)
	}
}

// A dial's timers restore through Clock.Rearm: a slot the clock cannot hold
// fails the codec instead of reaching Arm's panic.
func TestDialRestoreRejectsTimerOutsideClock(t *testing.T) {
	_, _, stackSnap := midDial(t)
	_, _, sb := newPair(t, netsim.Route{OneWayDelay: 20 * time.Millisecond})
	dec := snap.NewDecoder(stackSnap) // onto a clock that has issued no seq yet
	sb.Sync(dec, NewSnapCtx(nil))
	if err := dec.Err(); err == nil || !strings.Contains(err.Error(), "outside the restored clock") {
		t.Fatalf("want the dial's timeout slot refused, got %v", err)
	}
}

// restoreDoctored snapshots a loaded conn (ten messages taken, four of them in
// flight, three segments buffered) as doctor leaves it and restores that onto
// a fresh pair: the error, and what the attempt left on lease.
func restoreDoctored(t *testing.T, doctor func(tc *simTCP)) (err error, leased int) {
	t.Helper()
	clock, _, _, _, tc := loadedPair(t)
	doctor(tc)
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	clock.Sync(enc)
	var conn Conn = tc
	SyncConn(enc, &conn, nil, NewSnapCtx(intSync))
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}

	clock, _, sb := newPair(t, netsim.Route{})
	dec := snap.NewDecoder(buf.Bytes())
	clock.Sync(dec)
	SyncConn(dec, &conn, sb, NewSnapCtx(intSync))
	return dec.Err(), sb.segs.Leased()
}

// A closed conn holds nothing, so a snapshot that shows one with a segment
// unsent, in flight or buffered — or a backlog frozen below zero — was not
// written by this walk: restoring it would lease cells that no close will ever
// release. Each is refused before a cell is leased.
func TestRestoreRejectsClosedConnThatHolds(t *testing.T) {
	var none seqwin.Window[*tcpSeg]
	for _, tt := range []struct {
		holds  string
		doctor func(tc *simTCP) // what a loaded conn keeps as it is marked closed
	}{
		{"a segment", func(tc *simTCP) { // what it has not sent
			tc.send.DropBelow(tc.sndNxt)
			tc.sendBase, tc.reorder = tc.sndNxt, none
		}},
		{"a segment", func(tc *simTCP) { // its flight
			for seq := tc.sndNxt; seq < tc.nextSeq; seq++ {
				tc.send.Delete(seq)
			}
			tc.nextSeq, tc.reorder = tc.sndNxt, none
		}},
		{"a segment", func(tc *simTCP) { tc.send, tc.sndNxt = none, tc.sendBase }}, // its reorder buffer
		{"a backlog of -1", func(tc *simTCP) { tc.teardown(); tc.depth = -1 }},
	} {
		err, leased := restoreDoctored(t, func(tc *simTCP) {
			tt.doctor(tc)
			tc.closed = true
		})
		if err == nil || !strings.Contains(err.Error(), "conn b:5000 is closed but holds "+tt.holds) {
			t.Errorf("closed conn holding %s: restore said %v", tt.holds, err)
		}
		if leased != 0 {
			t.Errorf("closed conn holding %s: the refused restore left %d segments on lease", tt.holds, leased)
		}
	}
}

// An open conn's send buffer is the unsent run behind the flight, consecutive,
// adjacent and ending at nextSeq, and a snapshot says where one stops and the
// other starts only through its two counts. A file whose counts and seqs do
// not add up to the conn's counters is refused on one line, never restored
// with a hole the sender would later step into.
func TestRestoreRejectsSendBufferThatDoesNotAddUp(t *testing.T) {
	for _, tt := range []struct {
		name, want string
		doctor     func(tc *simTCP) // the loaded conn has sendBase 0, sndNxt 4, nextSeq 10
	}{
		{"a gap inside the unsent run", "has seq 70 unsent where the run [4,10) wants seq 7",
			func(tc *simTCP) { tc.send.Get(7).seq = 70 }},
		{"a flight keyed out of order", "has seq 2 in flight where the run [0,4) wants seq 1",
			func(tc *simTCP) { tc.send.Put(1, tc.send.Get(2)) }},
		{"a flight count that disagrees with the counters", "has its flight start at seq 1, not at the 0 it has acknowledged up to",
			func(tc *simTCP) { tc.send.Delete(0); tc.sndNxt = 3 }},
		{"an unsent run longer than the unacknowledged range", "has 10 segments unsent below seq 10, more than its unacknowledged range [6,10) holds",
			func(tc *simTCP) { tc.sendBase, tc.sndNxt = 6, 6 }},
		{"a flight that reaches below what was acknowledged", "has 3 segments in flight below seq 3, more than its unacknowledged range [1,10) holds",
			func(tc *simTCP) { tc.sendBase = 1 }},
	} {
		err, _ := restoreDoctored(t, tt.doctor)
		if err == nil || !strings.HasPrefix(err.Error(), "transport: conn b:5000 ") || !strings.Contains(err.Error(), tt.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: restore said %v, want one line saying it %s", tt.name, err, tt.want)
		}
	}
	if err, leased := restoreDoctored(t, func(*simTCP) {}); err != nil || leased != 13 {
		t.Errorf("the loaded conn undoctored: restore said %v and leased %d segments, want the 10 it sends and the 3 it buffers", err, leased)
	}
}
