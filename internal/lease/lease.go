// Package lease is the free-list behind every pooled packet cell: the packet
// structs of an rdt.Arena and the segments of a transport.Stack. A cell is
// leased with Get and handed back, once, with Put by whoever read it last;
// who that is, and what stops a second Put, is the owning package's rule
// (netsim/transit.go states it).
package lease

import "unsafe"

// Chunk is the most cells carved per backing allocation.
const Chunk = 64

// chunkBytes is the most bytes carved per backing allocation: a pool of large
// cells carves fewer at a time, so an owner that ever needs one pins a few
// kilobytes, not 64 cells' worth.
const chunkBytes = 4 << 10

// Pool hands out zeroed cells of T: released ones first, most recent first,
// then the uncarved remainder of the newest chunk — so a pool grows to its
// owner's working set and stops. The zero Pool is ready to use; it is
// single-threaded, like everything else behind one simulated clock.
type Pool[T any] struct {
	free   []*T
	rest   []T // uncarved cells of the newest chunk
	carved int // cells ever carved; carved - len(free) are on lease
}

// Get leases a zeroed cell.
func (p *Pool[T]) Get() *T {
	if k := len(p.free); k > 0 {
		c := p.free[k-1]
		p.free = p.free[:k-1]
		return c
	}
	if len(p.rest) == 0 {
		p.rest = make([]T, min(max(chunkBytes/int(unsafe.Sizeof(*new(T))), 1), Chunk))
	}
	c := &p.rest[0]
	p.rest = p.rest[1:]
	p.carved++
	return c
}

// Put clears a cell and takes it back: a stale reader sees zeros, never a
// plausible neighbour.
func (p *Pool[T]) Put(c *T) {
	var zero T
	*c = zero
	p.free = append(p.free, c)
}

// Carved reports how many cells the pool has ever carved: the growth audit.
func (p *Pool[T]) Carved() int { return p.carved }

// Leased reports how many cells are out now: the conservation audit.
func (p *Pool[T]) Leased() int { return p.carved - len(p.free) }
