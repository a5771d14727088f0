package seqwin

import (
	"fmt"

	"realtracer/internal/snap"
)

// Sync walks the window as its entry count, then every entry in ascending
// key order through entry — the bytes snap.Map wrote for the map this window
// replaced. entry owns an entry's wire form: it writes *key and *v when
// encoding and fills both when decoding (a value that carries its own key
// need not write it twice), and may fail the codec for a key its owner's
// other state rules out. Decoding replaces the window's contents and fails
// the codec — naming the window as "what of owner" — on anything this walk
// could not have written: an absent value, keys out of order, or keys
// MaxSpan or more apart.
func (w *Window[V]) Sync(c *snap.Codec, what, owner string, entry func(c *snap.Codec, key *uint64, v *V)) {
	n := w.n
	c.Len(&n)
	var key uint64 // one cell each for the whole walk, not one per entry
	var v, zero V
	if !c.Reading() {
		for k, e := range w.Each {
			key, v = k, e
			entry(c, &key, &v)
		}
		return
	}
	w.Reset()
	var first, prev uint64
	for i := 0; i < n && c.Err() == nil; i++ {
		key, v = 0, zero
		entry(c, &key, &v)
		switch {
		case c.Err() != nil:
		case v == zero:
			c.Fail(fmt.Errorf("seqwin: %s of %s: seq %d has no value", what, owner, key))
		case i > 0 && key <= prev:
			c.Fail(fmt.Errorf("seqwin: %s of %s: seq %d follows seq %d", what, owner, key, prev))
		case i > 0 && key-first >= MaxSpan:
			c.Fail(fmt.Errorf("seqwin: %s of %s: seqs %d and %d are too far apart for one window (limit %d)", what, owner, first, key, MaxSpan))
		default:
			if i == 0 {
				first = key
			}
			w.Put(key, v)
			prev = key
		}
	}
}
