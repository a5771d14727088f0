package rdt

import (
	"reflect"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestArenaLeaseLifecycle walks one cell of every kind through lease,
// release and re-lease: a released cell reads as zero, the next lease of the
// kind gets that very cell back (so nothing new is carved), a NACK's and a
// repair's embedded backing arrays come back empty at full capacity, and the
// books balance.
func TestArenaLeaseLifecycle(t *testing.T) {
	var a Arena
	kinds := []struct {
		name  string
		lease func() *Packet
	}{
		{"data", a.Data}, {"report", a.Report}, {"bufferstate", a.BufferState},
		{"eos", a.EOS}, {"nack", a.Nack}, {"repair", a.Repair},
	}
	for _, k := range kinds {
		p := k.lease()
		switch p.Kind {
		case TypeData:
			p.Data.Seq, p.Data.PadLen = 7, 900
		case TypeNack:
			p.Nack.Seqs = append(p.Nack.Seqs, 1, 2, 3)
		case TypeRepair:
			p.Repair.Meta = append(p.Repair.Meta, RepairMeta{Seq: 9})
		}
		d, nk, rp := p.Data, p.Nack, p.Repair
		carved, leased := a.Cells()
		if leased != 2 {
			t.Fatalf("%s: %d cells on lease, want the wrapper and its variant", k.name, leased)
		}
		p.TransitRelease(nil)
		if (*p != Packet{home: &a}) {
			t.Errorf("%s: released wrapper reads %+v, want zero", k.name, *p)
		}
		if d != nil && !reflect.DeepEqual(*d, Data{}) {
			t.Errorf("released Data reads %+v, want zero", *d)
		}
		if nk != nil && (nk.Seqs != nil || nk.Stream != 0) {
			t.Errorf("released NACK reads %+v, want zero", *nk)
		}
		if rp != nil && (rp.Meta != nil || rp.BaseSeq != 0) {
			t.Errorf("released repair reads %+v, want zero", *rp)
		}
		if _, leased := a.Cells(); leased != 0 {
			t.Errorf("%s: %d cells on lease after the release", k.name, leased)
		}
		again := k.lease()
		if again != p || again.Data != d || again.Nack != nk || again.Repair != rp {
			t.Errorf("%s: the next lease did not get the released cells back", k.name)
		}
		if nk != nil && (len(nk.Seqs) != 0 || cap(nk.Seqs) != MaxNackSeqs) {
			t.Errorf("re-leased NACK has len %d cap %d, want 0 and %d", len(nk.Seqs), cap(nk.Seqs), MaxNackSeqs)
		}
		if rp != nil && (len(rp.Meta) != 0 || cap(rp.Meta) != repairMetaCap) {
			t.Errorf("re-leased repair has len %d cap %d, want 0 and %d", len(rp.Meta), cap(rp.Meta), repairMetaCap)
		}
		if c, _ := a.Cells(); c != carved {
			t.Errorf("%s: re-leasing carved %d new cells", k.name, c-carved)
		}
		again.TransitRelease(nil)
	}
}

// TestArenaSecondReleasePanics: a stale release must not hand a cell that is
// on somebody else's lease — or on the free-list twice — back to the arena.
func TestArenaSecondReleasePanics(t *testing.T) {
	var a Arena
	for _, p := range []*Packet{a.Report(), a.Data()} {
		kind := p.Kind
		p.TransitRelease(nil)
		mustPanic(t, "releasing a "+kind.String()+" Packet twice", func() { p.TransitRelease(nil) })
	}

	// A packet no arena leased — decoded from a socket, restored from a
	// snapshot — is released as often as anyone likes.
	free := &Packet{Kind: TypeData, Data: &Data{Seq: 1}}
	free.TransitRelease(nil)
	free.TransitRelease(nil)
	if free.Data.Seq != 1 {
		t.Error("releasing an unpooled packet touched it")
	}
}
