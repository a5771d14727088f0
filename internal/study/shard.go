// The sharded engine's share of the study layer: Options.Shards > 0
// partitions one world's hosts across N netsim.Fabric shards and runs them
// in parallel under conservative-lookahead windows. The contract is the
// fabric's: for a fixed seed, the merged record stream is byte-identical
// for every shard count N >= 1. Such a world is built by the same NewWorld
// sequence and run by the same World.Run as the classic one (world.go; the
// World.fab field lists every point where the two differ); this file holds
// what that sequence calls on the way: the arrival-cell partition, the
// packing of cells onto shards, and the record merge.
//
// The study layer's own contribution to the contract is the arrival-cell
// partition. Users are grouped into cells — country blocks of at most
// cellBlockSize templates — BEFORE any shard assignment, so the cell set,
// each cell's spec (the full arrival process Poisson-split by member
// share), its RNG stream and its arrival budget are all independent of N.
// Changing N only re-packs whole cells onto shards; nothing a cell draws,
// schedules or observes moves. Records are buffered per shard and merged
// in (EndSec, StartSec, User, ClipURL) order after the run.
package study

import (
	"fmt"
	"math"
	"sort"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/server"
	"realtracer/internal/trace"
)

// cellBlockSize caps an arrival cell's template count. Small cells exist
// purely for load balance: the US holds 38 of 63 templates, and splitting
// its block lets the packer spread the dominant country across shards.
const cellBlockSize = 8

// buildCells partitions the template pool into arrival cells and packs them
// onto the shards. On a fabric: users grouped by country in first-appearance
// order, countries split into blocks of at most cellBlockSize. Each cell
// runs a Poisson split of the full arrival process (rate scaled by member
// share, so superposing the cells reproduces the aggregate intensity), its
// own RNG stream derived from the workload seed and the cell ordinal, its
// own selection-policy instance, and a largest-remainder share of the
// arrival budget. None of this depends on the shard count.
//
// The classic world is the degenerate partition: one cell over the whole
// pool, drawing from the workload seed itself. A share of 1 scales the spec
// by exactly 1 and apportions the whole budget to the one cell, so its draw
// stream is the one the single-cell engine always drew.
func (w *World) buildCells() ([]*arrivalCell, error) {
	spec, polName, err := w.resolveWorkloadSpec()
	if err != nil {
		return nil, err
	}
	pool := len(w.Users)
	var memberSets [][]int
	if w.fab == nil {
		whole := make([]int, pool)
		for i := range whole {
			whole[i] = i
		}
		memberSets = [][]int{whole}
	} else {
		groups := make(map[string][]int)
		var order []string
		for i, u := range w.Users {
			if _, ok := groups[u.Country]; !ok {
				order = append(order, u.Country)
			}
			groups[u.Country] = append(groups[u.Country], i)
		}
		for _, country := range order {
			m := groups[country]
			for len(m) > cellBlockSize {
				memberSets = append(memberSets, m[:cellBlockSize])
				m = m[cellBlockSize:]
			}
			memberSets = append(memberSets, m)
		}
	}

	budgets := apportionArrivals(w.Options.Arrivals, memberSets, pool)
	cells := make([]*arrivalCell, 0, len(memberSets))
	for ci, members := range memberSets {
		cells = append(cells, &arrivalCell{
			ord:          ci,
			spec:         spec.Scaled(float64(len(members)) / float64(pool)),
			policy:       policyInstance(polName),
			rng:          detrand.New(w.Options.cellSeed(ci, w.fab != nil)),
			arrivalsLeft: budgets[ci],
			members:      members,
			busy:         make([]bool, len(members)),
			ports:        make([]int, len(members)),
			bundles:      make([]*sessionBundle, len(members)),
		})
	}
	assignShards(cells, len(w.factories))
	for _, c := range cells {
		c.f = w.factories[c.shard]
	}
	return cells, nil
}

// apportionArrivals divides the arrival budget across cells in proportion
// to their member counts by largest remainder, so the total is exact and
// every cell's share is independent of everything but the (N-invariant)
// cell partition itself.
func apportionArrivals(total int, memberSets [][]int, pool int) []int {
	out := make([]int, len(memberSets))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(memberSets))
	assigned := 0
	for i, m := range memberSets {
		exact := float64(total) * float64(len(m)) / float64(pool)
		out[i] = int(math.Floor(exact))
		assigned += out[i]
		rems[i] = rem{i: i, frac: exact - math.Floor(exact)}
	}
	// Largest remainder's invariant: the floors under-shoot the total by
	// strictly less than one per cell (each remainder is in [0,1)), so the
	// shortfall fits in one +1 pass over the remainder ranking. A shortfall
	// outside [0, len(rems)) means the proportional arithmetic itself broke
	// — wrapping around the ranking would silently misapportion, so fail
	// loudly with the evidence instead.
	if short := total - assigned; short < 0 || short > len(rems) {
		panic(fmt.Sprintf("study: apportionArrivals shortfall %d outside [0,%d] (total %d, assigned %d, pool %d)",
			short, len(rems), total, assigned, pool))
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < total-assigned; k++ {
		out[rems[k].i]++
	}
	return out
}

// assignShards packs whole cells onto shards: greedy least-loaded by
// template count, visiting cells largest-first (ties in cell order). The
// packing balances work but cannot change results — a cell behaves
// identically on every shard.
func assignShards(cells []*arrivalCell, shards int) {
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return len(cells[idx[a]].members) > len(cells[idx[b]].members)
	})
	load := make([]int, shards)
	for _, ci := range idx {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		cells[ci].shard = best
		load[best] += len(cells[ci].members)
	}
}

// dropArm posts a departed client's server-side teardown to the server's
// shard (see arrivalCell.endSession). It fires at +L, while the bundle is
// still bound to the departed template.
type dropArm struct {
	srv *server.Server
	b   *sessionBundle
}

func (d *dropArm) Fire(time.Duration) { d.srv.DropClient(d.b.cell.f.w.Users[d.b.idx].Name) }

// mergeShardRecords sorts the concatenated per-shard record streams into
// the partition-invariant output order: the observable keys first, then the
// session's arrival ordinal as a total-order tiebreak. The ordinal matters
// when two records agree on every observable key — one user's back-to-back
// sessions of the same clip, bracketed to coarse identical timestamps, do
// exactly that. Without it the tie falls back to concatenation order, which
// is per-shard collection order — the one thing that changes with the shard
// count.
func mergeShardRecords(all []*trace.Record) {
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.EndSec != b.EndSec {
			return a.EndSec < b.EndSec
		}
		if a.StartSec != b.StartSec {
			return a.StartSec < b.StartSec
		}
		if a.User != b.User {
			return a.User < b.User
		}
		if a.ClipURL != b.ClipURL {
			return a.ClipURL < b.ClipURL
		}
		return a.Ordinal < b.Ordinal
	})
}
