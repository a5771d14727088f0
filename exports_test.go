package realtracer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchOnly lists the exported functions under internal/ whose one non-test
// caller is the benchmark harness, each with the file that calls it.
// cmd/bench is its own module and measures the engine from outside, so these
// stay exported until the harness reads its numbers another way (ROADMAP
// item 1).
var benchOnly = map[string]string{
	"campaign.RunWarmForks":     "cmd/bench/workloads.go", // the warmfork16 workload
	"core.AllFigures":           "cmd/bench/workloads.go", // panel63 builds and renders every figure
	"server.(*Server).Counters": "cmd/bench/workloads.go", // server.played, server.torndown
	"simclock.(*Clock).Pending": "cmd/bench/workloads.go", // simclock.pending_max
	"study.Run":                 "cmd/bench/run.go",       // the timed run of every workload but warmfork16
}

// TestEveryExportHasACaller walks every non-test Go file in the repository
// and refuses an exported function or method under internal/ that no
// non-test code outside cmd/bench calls, unless benchOnly lists it: what a
// package exports is what the binaries and examples run, and a test that
// needs more reaches it through an export_test.go. A top-level function
// counts as called where a file names it through its package's import (or
// bare, inside its own package); a method counts as called where any file
// selects a field or method of its name, so the fence errs toward passing
// and never refuses a real caller.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, name string // "pkg.Func" or "pkg.(*Type).Method", pkg the path below internal/
		method    bool
		pos       token.Position
	}
	var decls []decl
	funcUses := map[string]map[string]bool{}   // "pkg.Func" → the files that name it
	methodUses := map[string]map[string]bool{} // method name → the files that select it
	use := func(m map[string]map[string]bool, key, file string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][file] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		own, _ := strings.CutPrefix(filepath.Dir(path), "internal/")
		if own == filepath.Dir(path) {
			own = "" // not an internal package
		}
		imports := map[string]string{} // local name → internal package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "realtracer/internal/"); ok {
				name := pkg[strings.LastIndex(pkg, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = pkg
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if own == "" || !fn.Name.IsExported() {
				continue
			}
			d := decl{key: own + "." + fn.Name.Name, name: fn.Name.Name, method: fn.Recv != nil, pos: fset.Position(fn.Pos())}
			if d.method {
				recv := fn.Recv.List[0].Type
				star := ""
				if s, ok := recv.(*ast.StarExpr); ok {
					recv, star = s.X, "*"
				}
				if g, ok := recv.(*ast.IndexExpr); ok {
					recv = g.X
				}
				d.key = own + ".(" + star + recv.(*ast.Ident).Name + ")." + fn.Name.Name
			}
			decls = append(decls, d)
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						use(funcUses, pkg+"."+n.Sel.Name, path)
						return false
					}
				}
				use(methodUses, n.Sel.Name, path)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if own != "" && !declared[n] {
					use(funcUses, own+"."+n.Name, path)
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		uses := funcUses[d.key]
		if d.method {
			uses = methodUses[d.name]
		}
		outside, bench := false, false
		for file := range uses {
			if strings.HasPrefix(file, "cmd/bench/") {
				bench = bench || file == benchOnly[d.key]
			} else {
				outside = true
			}
		}
		switch site, listed := benchOnly[d.key]; {
		case listed && outside:
			t.Errorf("%s: %s has a caller outside cmd/bench; drop it from benchOnly", d.pos, d.key)
		case listed && !bench:
			t.Errorf("%s: benchOnly names %s as the caller of %s, which does not call it", d.pos, site, d.key)
		case !listed && !outside:
			t.Errorf("%s: no non-test code calls %s; delete it or move it into an export_test.go", d.pos, d.key)
		}
	}
	for key := range benchOnly {
		if !seen[key] {
			t.Errorf("benchOnly lists %s, which internal/ does not declare", key)
		}
	}
}
