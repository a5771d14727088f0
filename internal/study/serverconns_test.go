package study

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"realtracer/internal/server"
	"realtracer/internal/session"
)

// acceptTable returns the conns server i's transport stack holds in the
// accept table of port: the one record of them a snapshot has.
func acceptTable(w *World, i, port int) []reflect.Value {
	l := peek(reflect.ValueOf(w.serverStacks[i]), "listeners").MapIndex(reflect.ValueOf(port))
	if !l.IsValid() {
		return nil
	}
	var conns []reflect.Value
	for it := peek(l, "seen").MapRange(); it.Next(); {
		conns = append(conns, it.Value())
	}
	return conns
}

// connPeerHost is the client host at the far end of a server-side conn.
func connPeerHost(conn reflect.Value) string {
	return addrHostOf(peek(peek(conn, "peer"), "addr").String())
}

func addrHostOf(addr string) string { return addr[:strings.LastIndexByte(addr, ':')] }

// serverConnCuts are the server-side conn states a snapshot reaches only
// through the transport stack's accept tables, or through a session's walk of
// its closed control conn. Each find reports the client host whose conn is in
// the state at w's instant, or "".
var serverConnCuts = []struct {
	name string
	find func(w *World) string
}{
	// A control conn that has delivered a DESCRIBE and nothing since: no
	// session names it.
	{"describe", func(w *World) string {
		for i := range w.Servers {
			for _, conn := range acceptTable(w, i, session.ControlPort) {
				if peek(conn, "rcvNext").Uint() == 1 {
					return connPeerHost(conn)
				}
			}
		}
		return ""
	}},
	// A TCP data conn accepted with its DataHello still on the wire.
	{"hello", func(w *World) string {
		for i := range w.Servers {
			for _, conn := range acceptTable(w, i, session.DataTCPPort) {
				if peek(conn, "rcvNext").Uint() == 0 {
					return connPeerHost(conn)
				}
			}
		}
		return ""
	}},
	// A live TCP session whose control conn closed — its client's FIN arrived
	// and its TEARDOWN did not. Only that closed conn ties the session to its
	// client for DropClient.
	{"closedctl", func(w *World) string {
		for _, srv := range w.Servers {
			for it := peek(reflect.ValueOf(srv), "sessions").MapRange(); it.Next(); {
				sess := it.Value()
				cc := peek(sess, "cc")
				if peek(peek(sess, "spec"), "Protocol").String() != "tcp" || cc.IsNil() {
					continue
				}
				if conn := peek(cc, "conn"); peek(conn, "closed").Bool() {
					return connPeerHost(conn)
				}
			}
		}
		return ""
	}},
}

// sessionIDs lists the live sessions of srv.
func sessionIDs(srv *server.Server) []string {
	var ids []string
	for _, k := range peek(reflect.ValueOf(srv), "sessions").MapKeys() {
		ids = append(ids, k.String())
	}
	slices.Sort(ids)
	return ids
}

// dropClient has every server of w drop client and reports, per server, how
// many sessions went, then which stayed.
func dropClient(w *World, client string) [][]string {
	var out [][]string
	for _, srv := range w.Servers {
		n := srv.DropClient(client)
		out = append(out, append([]string{strconv.Itoa(n)}, sessionIDs(srv)...))
	}
	return out
}

// lossyChurn is the churn-heavy fence world under twice the loss-burst
// weather: enough lost segments that some TCP session's TEARDOWN is overtaken
// by its client's FIN.
var lossyChurn = Options{
	Seed: 17, MaxUsers: 6, ClipCap: 2,
	Workload: "poisson", Arrivals: 64, WorkloadIntensity: 2,
	Dynamics: "lossburst", DynamicsIntensity: 2,
}

// TestCheckpointAtServerConnStates cuts one world at the first instant each
// of three server-conn states holds: a control conn between DESCRIBE and
// SETUP, a data conn whose DataHello is in flight, and a live TCP session whose
// control conn has closed. No server list names the first two any more; the
// stack's accept-table walk restores them and hands them to the server's
// accept callbacks. Each exact resume finishes with the straight-through
// records and checkpoints back to the bytes it was resumed from, and dropping
// the state's client right after the resume reaps the same sessions as
// dropping it from the world the snapshot was cut from.
func TestCheckpointAtServerConnStates(t *testing.T) {
	opt := lossyChurn
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := recordsBytes(t, straight.Records)

	// Scout: the event count at which each state first holds.
	at := make([]int, len(serverConnCuts))
	scout, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	for left, n := len(at), 1; left > 0 && !scout.finished() && scout.Clock.Step(); n++ {
		for i, cut := range serverConnCuts {
			if at[i] == 0 && cut.find(scout) != "" {
				at[i], left = n, left-1
			}
		}
	}

	for i, cut := range serverConnCuts {
		t.Run(cut.name, func(t *testing.T) {
			if at[i] == 0 {
				t.Fatalf("no instant of the world has a server conn in state %s", cut.name)
			}
			w, err := NewWorld(opt)
			if err != nil {
				t.Fatal(err)
			}
			for range at[i] {
				w.Clock.Step()
			}
			client := cut.find(w)
			snap := checkpoint(t, w)

			if got := recordsBytes(t, resumeAndRun(t, snap, nil).Records); !bytes.Equal(got, want) {
				t.Fatalf("records after resume from %v differ from the straight-through run", w.Clock.Now())
			}

			r, err := Resume(bytes.NewReader(snap), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpoint(t, r), snap) {
				t.Fatal("the resumed world checkpoints to other bytes than the snapshot it was resumed from")
			}
			dropped, rdropped := dropClient(w, client), dropClient(r, client)
			if !reflect.DeepEqual(dropped, rdropped) {
				t.Fatalf("dropping %s after the resume reaped and kept (per server) %q, from the cut world %q", client, rdropped, dropped)
			}
			if reaped := slices.IndexFunc(dropped, func(s []string) bool { return s[0] != "0" }); cut.name == "closedctl" && reaped < 0 {
				t.Fatalf("dropping %s reaped no session: the closed control conn no longer ties its session to the client", client)
			}
			t.Logf("cut at %v after %d events, client %s", w.Clock.Now(), at[i], client)
		})
	}
}
