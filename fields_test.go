package realtracer

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryFieldIsRead type-checks every package in the repository, tests and
// cmd/bench included, and refuses a struct field declared in non-test code
// under internal/ that nothing reads: state that is computed, presized and
// checkpointed but never looked at is code to keep right for no record.
// Selectors are resolved with go/types, so two fields of one name in two
// types are told apart. These uses of a field are not reads:
//   - an assignment's left-hand side, ++ and +=;
//   - a composite-literal key;
//   - &x.f handed to a *snap.Codec method or a snap function, which walks the
//     field into a snapshot and back;
//   - x.f[:0], slices.Grow(x.f, …) and append(x.f, …) whose value goes back
//     into x.f, which is capacity reuse: so x.f = append(x.f, …) is a write.
//
// A value goes into a field when it is assigned to it, keyed to it in a
// composite literal, or held in a variable whose every use does one of these.
// A read whose value goes into another field counts when that field is read.
// Embedded fields are not checked: they are read through what they promote.
func TestEveryFieldIsRead(t *testing.T) {
	// The source importer would run cgo over net's cgo files; their pure-Go
	// twins declare the same API.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// A field is keyed by where it is declared: the source importer and this
	// test each parse a package's files, so one field has two objects.
	declared := map[token.Position]string{} // → "pkg.Type.field", pkg the path below internal/
	read := map[token.Position]bool{}
	feeds := map[token.Position][]token.Position{} // field → the fields its reads only go into

	// check type-checks one package's files, then records the fields its
	// non-test files declare (when decl is set) and the fields all of them
	// read. self, when set, answers the package's own import path: an
	// external test package sees what the internal test files add to it.
	check := func(dir, path string, names []string, decl bool, self *types.Package) (*types.Package, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		s := &fieldScan{
			fset: fset,
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			parent: map[ast.Node]ast.Node{},
			uses:   map[types.Object][]*ast.Ident{},
		}
		var errs []error
		conf := types.Config{
			Importer: importerFunc(func(p, from string) (*types.Package, error) {
				if self != nil && p == self.Path() {
					return self, nil
				}
				return src.ImportFrom(p, from, 0)
			}),
			Error: func(err error) { errs = append(errs, err) },
		}
		pkg, _ := conf.Check(path, fset, files, s.info)
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		for id, obj := range s.info.Uses {
			s.uses[obj] = append(s.uses[obj], id)
		}
		own, _ := strings.CutPrefix(path, "realtracer/internal/")
		for i, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				if len(stack) > 0 {
					s.parent[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
			if !decl || strings.HasSuffix(names[i], "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				typ := "struct" // an anonymous struct's fields are named by their package
				for p := s.parent[n]; p != nil; p = s.parent[p] {
					if ts, ok := p.(*ast.TypeSpec); ok {
						typ = ts.Name.Name
						break
					}
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.Name != "_" {
							declared[fset.Position(id.Pos())] = own + "." + typ + "." + id.Name
						}
					}
				}
				return true
			})
		}
		for sel, x := range s.info.Selections {
			if x.Kind() != types.FieldVal || s.onlyWrites(sel) {
				continue
			}
			field := s.at(x.Obj())
			switch into, ok := s.into(s.carrier(sel), 0); {
			case !ok:
				read[field] = true
			case into != field:
				feeds[field] = append(feeds[field], into)
			}
		}
		return pkg, nil
	}

	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		} else if err != nil {
			return err
		}
		path := "realtracer"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		dir = filepath.Join(root, dir)
		pkg, err := check(dir, path, slices.Concat(bp.GoFiles, bp.TestGoFiles), strings.HasPrefix(path, "realtracer/internal/"), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := check(dir, path+"_test", bp.XTestGoFiles, false, pkg); err != nil {
				return fmt.Errorf("%s_test: %w", path, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no field declared under internal/")
	}

	for grew := true; grew; {
		grew = false
		for field, into := range feeds {
			if !read[field] && slices.ContainsFunc(into, func(g token.Position) bool { return read[g] }) {
				read[field], grew = true, true
			}
		}
	}
	var unread []token.Position
	for pos := range declared {
		if !read[pos] {
			unread = append(unread, pos)
		}
	}
	slices.SortFunc(unread, func(a, b token.Position) int { return strings.Compare(declared[a], declared[b]) })
	for _, pos := range unread {
		rel, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("%s:%d: nothing reads %s; delete it and what writes it", filepath.ToSlash(rel), pos.Line, declared[pos])
	}
}

type importerFunc func(path, from string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, from string, _ types.ImportMode) (*types.Package, error) {
	return f(path, from)
}

// fieldScan holds one type-checked package's syntax for TestEveryFieldIsRead.
type fieldScan struct {
	fset   *token.FileSet
	info   *types.Info
	parent map[ast.Node]ast.Node
	uses   map[types.Object][]*ast.Ident
}

func (s *fieldScan) at(obj types.Object) token.Position { return s.fset.Position(obj.Pos()) }

// onlyWrites reports whether the field selector sel is assigned to, or
// handed by address to the snapshot codec.
func (s *fieldScan) onlyWrites(sel *ast.SelectorExpr) bool {
	switch p := s.parent[sel].(type) {
	case *ast.AssignStmt:
		return slices.Contains(p.Lhs, ast.Expr(sel))
	case *ast.IncDecStmt:
		return true
	case *ast.UnaryExpr:
		call, ok := s.parent[p].(*ast.CallExpr)
		if !ok || p.Op != token.AND || !slices.Contains(call.Args, ast.Expr(p)) {
			return false
		}
		fn, ok := s.callee(call).(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "realtracer/internal/snap"
	}
	return false
}

// carrier returns the expression whose value carries what sel reads: sel
// itself, or the x.f[:0], slices.Grow(x.f, …) and append(x.f, …) around it
// that reuse its capacity, however they nest.
func (s *fieldScan) carrier(sel *ast.SelectorExpr) ast.Expr {
	zero := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	var e ast.Expr = sel
	for {
		switch p := s.parent[e].(type) {
		case *ast.SliceExpr:
			if p.X == e && (p.Low == nil || zero(p.Low)) && zero(p.High) && p.Max == nil {
				e = p
				continue
			}
		case *ast.CallExpr:
			if len(p.Args) == 0 || p.Args[0] != e {
				break
			}
			switch fn := s.callee(p).(type) {
			case *types.Func:
				if fn.Pkg() != nil && fn.Pkg().Path() == "slices" && fn.Name() == "Grow" {
					e = p
					continue
				}
			case *types.Builtin:
				if fn.Name() == "append" {
					e = p
					continue
				}
			}
		}
		return e
	}
}

// into returns the one field the value of e goes into, if it goes only into
// one: assigned to it, keyed to it in a composite literal, or held in a
// variable whose every use goes into it.
func (s *fieldScan) into(e ast.Expr, depth int) (token.Position, bool) {
	switch p := s.parent[e].(type) {
	case *ast.KeyValueExpr:
		if key, ok := p.Key.(*ast.Ident); ok && p.Value == e {
			if v, ok := s.info.Uses[key].(*types.Var); ok && v.IsField() {
				return s.at(v), true
			}
		}
	case *ast.AssignStmt:
		i := slices.Index(p.Rhs, e)
		if i < 0 || len(p.Lhs) != len(p.Rhs) || depth > 8 {
			break
		}
		switch l := p.Lhs[i].(type) {
		case *ast.SelectorExpr:
			if x := s.info.Selections[l]; x != nil && x.Kind() == types.FieldVal {
				return s.at(x.Obj()), true
			}
		case *ast.Ident:
			v, ok := s.info.ObjectOf(l).(*types.Var)
			if !ok || v.IsField() || len(s.uses[v]) == 0 {
				break
			}
			var into token.Position
			for i, u := range s.uses[v] {
				g, ok := s.into(u, depth+1)
				if !ok || i > 0 && g != into {
					return token.Position{}, false
				}
				into = g
			}
			return into, true
		}
	}
	return token.Position{}, false
}

// callee resolves the function a call names, bare or through a package or a
// receiver.
func (s *fieldScan) callee(call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return s.info.Uses[f]
	case *ast.SelectorExpr:
		return s.info.Uses[f.Sel]
	}
	return nil
}
