package rdt

import (
	"slices"
	"testing"

	"realtracer/internal/netsim"
)

// TestTransitCopyAllocatesNothing: a copy leased from a warm transit pool
// snapshots the largest repair group and the longest NACK an arena cell holds
// into its own storage, even when every cell the pool lends has carried only
// one-entry lists before. A copy whose lists were slices sized by their last
// use regrew them here, two allocations per copy.
func TestTransitCopyAllocatesNothing(t *testing.T) {
	var a Arena
	mk := func(n int) (repair, nack *Packet) {
		repair, nack = a.Repair(), a.Nack()
		for i := range min(n, repairMetaCap) {
			repair.Repair.Meta = append(repair.Repair.Meta, RepairMeta{Seq: uint32(100 + i), FragCount: 1})
		}
		for i := range min(n, MaxNackSeqs) {
			nack.Nack.Seqs = append(nack.Nack.Seqs, uint32(7*i))
		}
		return repair, nack
	}
	shortRepair, shortNack := mk(1)
	repair, nack := mk(max(repairMetaCap, MaxNackSeqs))

	// AllocsPerRun calls the function runs+1 times, and each call leases two
	// cells it keeps, so the pool is warmed with that many.
	const runs = 50
	var tp netsim.TransitPool
	var warm []*Packet
	for range runs + 1 {
		warm = append(warm, shortRepair.TransitCopy(&tp).(*Packet), shortNack.TransitCopy(&tp).(*Packet))
	}
	for _, cp := range warm {
		cp.TransitRelease(&tp)
	}

	var rc, nc *Packet
	allocs := testing.AllocsPerRun(runs, func() {
		rc, nc = repair.TransitCopy(&tp).(*Packet), nack.TransitCopy(&tp).(*Packet)
	})
	if allocs != 0 {
		t.Errorf("a warm transit pool copies a %d-member repair and a %d-seq NACK with %.1f allocations, want 0",
			repairMetaCap, MaxNackSeqs, allocs)
	}
	if !slices.Equal(rc.Repair.Meta, repair.Repair.Meta) {
		t.Errorf("repair copy carries %v, want %v", rc.Repair.Meta, repair.Repair.Meta)
	}
	if !slices.Equal(nc.Nack.Seqs, nack.Nack.Seqs) {
		t.Errorf("NACK copy carries %v, want %v", nc.Nack.Seqs, nack.Nack.Seqs)
	}
}
