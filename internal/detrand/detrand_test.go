package detrand

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"realtracer/internal/snap"
)

// drawMix exercises every method class the simulation uses and returns a
// fingerprint of the values drawn.
func drawMix(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n*5)
	for i := 0; i < n; i++ {
		out = append(out,
			float64(r.Int63()),
			r.Float64(),
			float64(r.Intn(9000)),
			r.NormFloat64(),
			r.ExpFloat64(),
		)
	}
	return out
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 9, 424242} {
		ref := drawMix(rand.New(rand.NewSource(seed)), 200)
		got := drawMix(New(seed).Rand, 200)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: draw %d: got %v want %v", seed, i, got[i], ref[i])
			}
		}
	}
}

func TestPlainMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 9, 424242} {
		ref := drawMix(rand.New(rand.NewSource(seed)), 200)
		r := Plain(seed)
		got := drawMix(&r, 200)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: draw %d: got %v want %v", seed, i, got[i], ref[i])
			}
		}
	}
}

// TestOnlyDetrandBuildsGenerators walks every non-test Go file under
// internal/ and refuses a call to math/rand's New or NewSource outside this
// package: a stream built anywhere else escapes the one place its bit
// source is chosen.
func TestOnlyDetrandBuildsGenerators(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if filepath.Base(filepath.Dir(path)) == "detrand" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		randName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				randName = "rand"
				if imp.Name != nil {
					randName = imp.Name.Name
				}
			}
		}
		if randName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == randName && (sel.Sel.Name == "New" || sel.Sel.Name == "NewSource") {
				t.Errorf("%s: rand.%s outside internal/detrand; build the stream with detrand.New or detrand.Plain", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	r := New(77)
	prefix := drawMix(r.Rand, 137)
	_ = prefix
	seed, count := r.State()
	if seed != 77 || count == 0 {
		t.Fatalf("State() = (%d, %d)", seed, count)
	}
	var buf bytes.Buffer
	r.Sync(snap.NewEncoder(&buf), nil)
	rest := New(0)
	dec := snap.NewDecoder(buf.Bytes())
	rest.Sync(dec, nil)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a, b := r.Int63(), rest.Int63(); a != b {
			t.Fatalf("draw %d after restore: %d != %d", i, a, b)
		}
		if a, b := r.NormFloat64(), rest.NormFloat64(); a != b {
			t.Fatalf("norm draw %d after restore: %v != %v", i, a, b)
		}
	}
	if _, c1 := r.State(); c1 == count {
		t.Fatal("count did not advance")
	}
}

func TestSeedResetsCount(t *testing.T) {
	r := New(5)
	r.Float64()
	r.Seed(11)
	if seed, count := r.State(); seed != 11 || count != 0 {
		t.Fatalf("after Seed: State() = (%d, %d), want (11, 0)", seed, count)
	}
	ref := rand.New(rand.NewSource(11))
	if a, b := r.Int63(), ref.Int63(); a != b {
		t.Fatalf("re-seeded stream diverges: %d != %d", a, b)
	}
}
