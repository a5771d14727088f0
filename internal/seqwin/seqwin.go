// Package seqwin holds values keyed by a dense, mostly increasing sequence
// number — TCP's flight and reorder buffer, the server's retransmit window,
// the player's FEC window — in a ring instead of a hash map. A packet's
// bookkeeping is then an index and a compare, and everything that used to
// sort or scan a map (the oldest entry, an ascending walk, "everything below
// the cumulative ACK") follows from the layout.
package seqwin

// MaxSpan bounds how far apart two keys of one window may lie, and with it
// the ring: a window never holds more than MaxSpan slots whatever sequence
// numbers a peer or a snapshot file claims. It equals the player's
// nackMaxGap — a clip is a few thousand packets, a flight 64 segments.
const MaxSpan = 1 << 16

// minRing is the first allocation: enough for a control connection's flight.
const minRing = 8

// Window maps sequence numbers to values of V. The zero V means "absent", so
// V is a pointer or a presence flag. The zero Window is empty and ready.
type Window[V comparable] struct {
	// ring has zero or a power-of-two number of slots; key k lives in
	// ring[k&(len-1)] wherever lo stands, so moving lo moves no entry.
	ring []V
	lo   uint64 // every entry's key is in [lo, lo+len(ring))
	n    int    // occupied slots
}

// Len returns the number of entries.
func (w *Window[V]) Len() int { return w.n }

// Get returns the value under key, or the zero V.
func (w *Window[V]) Get(key uint64) V {
	if key-w.lo >= uint64(len(w.ring)) { // also true for key < lo
		var zero V
		return zero
	}
	return w.ring[key&uint64(len(w.ring)-1)]
}

// Put stores v under key; the zero V deletes. Keys a whole MaxSpan or more
// away from key cannot share its window and are evicted — no caller here
// produces such a pair, a hostile peer or file can.
func (w *Window[V]) Put(key uint64, v V) {
	var zero V
	if v == zero {
		w.Delete(key)
		return
	}
	if key-w.lo >= uint64(len(w.ring)) {
		w.fit(key)
	}
	slot := &w.ring[key&uint64(len(w.ring)-1)]
	if *slot == zero {
		w.n++
	}
	*slot = v
}

// fit makes room for a key outside [lo, lo+len(ring)): it evicts what lies
// MaxSpan or more from key, pulls lo down to the smallest key left, and
// doubles the ring until the span fits — at most MaxSpan slots, because key
// is beyond one edge and everything kept is within MaxSpan of it.
func (w *Window[V]) fit(key uint64) {
	var zero V
	lo, hi := key, key
	for i := range w.ring {
		k := w.lo + uint64(i)
		slot := &w.ring[k&uint64(len(w.ring)-1)]
		switch {
		case *slot == zero:
		case k < key && key-k >= MaxSpan, k > key && k-key >= MaxSpan:
			*slot = zero
			w.n--
		default:
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	size := max(len(w.ring), minRing)
	for uint64(size) <= hi-lo {
		size *= 2
	}
	if size != len(w.ring) {
		old := w.ring
		w.ring = make([]V, size)
		for i := range old {
			k := w.lo + uint64(i)
			if v := old[k&uint64(len(old)-1)]; v != zero {
				w.ring[k&uint64(size-1)] = v
			}
		}
	}
	w.lo = lo
}

// Delete removes key's entry, if any.
func (w *Window[V]) Delete(key uint64) {
	if key-w.lo >= uint64(len(w.ring)) {
		return
	}
	var zero V
	if slot := &w.ring[key&uint64(len(w.ring)-1)]; *slot != zero {
		*slot = zero
		w.n--
	}
}

// DropBelow removes every entry with a key below cut and returns how many
// there were. The low edge follows the cut, so a window that is only ever
// added to at the top and cut at the bottom never re-lays itself out.
func (w *Window[V]) DropBelow(cut uint64) int {
	if cut <= w.lo {
		return 0
	}
	var zero V
	dropped := 0
	span := min(cut-w.lo, uint64(len(w.ring)))
	for i := uint64(0); i < span && dropped < w.n; i++ {
		if slot := &w.ring[(w.lo+i)&uint64(len(w.ring)-1)]; *slot != zero {
			*slot = zero
			dropped++
		}
	}
	w.n -= dropped
	w.lo = cut
	return dropped
}

// Min returns the entry with the smallest key, or 0 and the zero V when the
// window is empty.
func (w *Window[V]) Min() (key uint64, v V) {
	for key, v = range w.Each {
		break
	}
	return key, v
}

// Each yields every entry in ascending key order until yield returns false
// (so `for key, v := range w.Each` works). The window must not change while
// it is walked.
func (w *Window[V]) Each(yield func(key uint64, v V) bool) {
	var zero V
	left := w.n
	for i := 0; i < len(w.ring) && left > 0; i++ {
		k := w.lo + uint64(i)
		if v := w.ring[k&uint64(len(w.ring)-1)]; v != zero {
			if !yield(k, v) {
				return
			}
			left--
		}
	}
}

// Reset removes every entry and keeps the ring for the next user.
func (w *Window[V]) Reset() {
	if w.n > 0 {
		clear(w.ring)
	}
	w.lo, w.n = 0, 0
}

// Yield empties the window and gives its ring up, cleared, for another
// window of the same V to Adopt; this one is left as the zero Window.
func (w *Window[V]) Yield() []V {
	w.Reset()
	ring := w.ring
	w.ring = nil
	return ring
}

// Adopt makes a ring some window yielded the storage of w, which must be
// empty. Only the first allocations are saved: w holds, evicts and walks
// exactly what a zero Window would.
func (w *Window[V]) Adopt(ring []V) {
	if w.n != 0 {
		panic("seqwin: Adopt into a window that holds entries")
	}
	w.ring, w.lo = ring, 0
}
