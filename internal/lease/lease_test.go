package lease

import "testing"

// firstCarve leases one cell from an empty pool and reports how many cells
// that carved.
func firstCarve[T any](p *Pool[T]) int {
	p.Get()
	return len(p.rest) + 1
}

// TestChunksAreSizedInBytes: a pool carves up to Chunk small cells at a time
// but no more than chunkBytes of large ones, and at least one of any size.
func TestChunksAreSizedInBytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"8-byte cells", firstCarve(new(Pool[int64])), Chunk},
		{"1000-byte cells", firstCarve(new(Pool[[1000]byte])), chunkBytes / 1000},
		{"cells past chunkBytes", firstCarve(new(Pool[[chunkBytes + 1]byte])), 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: carved %d at a time, want %d", tc.name, tc.got, tc.want)
		}
	}
}
