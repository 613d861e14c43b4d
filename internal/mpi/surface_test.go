package mpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow is the exported API kept without a non-test caller: the
// documented test-support entry points. String methods are exempt too
// (fmt reaches them through the Stringer interface, not by name).
var surfaceAllow = map[string]bool{
	"RunChecked":      true,
	"CheckBalanced":   true,
	"CheckDrained":    true,
	"CheckGoroutines": true,
}

// TestExportedSurfaceIsCalled fails when internal/mpi exports a func or
// method that no non-test source of cmd/, examples/, internal/ or bench/
// names: the runtime carries what runs, nothing else. It is syntactic
// (go/parser, no type information): a package-level func counts as named
// by a bare identifier inside this package or by an mpi.Name selector in
// a file that imports it; a method by any .Name selector in this package
// or in a file that imports it. A method whose name some other type also
// uses in such a file (Wait, say) can therefore slip through; a name
// nobody writes cannot.
func TestExportedSurfaceIsCalled(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type decl struct {
		name   string
		method bool
		pos    token.Pos
	}
	var decls []decl
	idents := map[string]bool{}    // bare identifiers used inside package mpi
	selectors := map[string]bool{} // .Name selectors in mpi or its importers

	for _, dir := range []string{"cmd", "examples", "internal", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			own := filepath.Base(filepath.Dir(path)) == "mpi" && f.Name.Name == "mpi"
			imports := false
			for _, im := range f.Imports {
				if strings.HasSuffix(strings.Trim(im.Path.Value, `"`), "/internal/mpi") {
					imports = true
				}
			}
			if !own && !imports {
				return nil
			}
			declared := map[*ast.Ident]bool{}
			if own {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					declared[fd.Name] = true
					if fd.Name.IsExported() && (fd.Recv == nil || recvExported(fd.Recv)) {
						decls = append(decls, decl{fd.Name.Name, fd.Recv != nil, fd.Name.Pos()})
					}
				}
			}
			// Inspect reaches a selector before its Sel identifier, so
			// marking Sel here keeps x.Name from counting as a bare Name.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = true
					declared[n.Sel] = true
				case *ast.Ident:
					if own && !declared[n] {
						idents[n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) < 40 {
		t.Fatalf("found only %d exported funcs in internal/mpi: the walk is broken", len(decls))
	}

	var dead []string
	for _, d := range decls {
		if surfaceAllow[d.name] || d.name == "String" {
			continue
		}
		if selectors[d.name] || (!d.method && idents[d.name]) {
			continue
		}
		dead = append(dead, fset.Position(d.pos).String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test source: %s", d)
	}
}

// recvExported reports whether a method's receiver type is exported (a
// method on an unexported type is not part of the package's surface).
func recvExported(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}
