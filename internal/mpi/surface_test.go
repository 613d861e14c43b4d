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
// method that no non-test source of cmd/, internal/ or bench/ names: the
// runtime carries what runs, nothing else. It is syntactic (go/parser,
// no type information): a package-level func counts as named by a bare
// identifier inside this package or by an mpi.Name selector in a file
// that imports it; a method by any .Name selector in this package or in
// a file that imports it. A method whose name some other type also uses
// in such a file (Wait, say) can therefore slip through; a name nobody
// writes cannot. A method is exported when its receiver type is, or
// when an exported alias names the type (WinHandle = *winView).
func TestExportedSurfaceIsCalled(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type decl struct {
		name string
		recv string // receiver type; "" for a package-level func
		pos  token.Pos
	}
	var decls []decl
	aliased := map[string]bool{}   // unexported types an exported alias names
	idents := map[string]bool{}    // bare identifiers used inside package mpi
	selectors := map[string]bool{} // .Name selectors in mpi or its importers

	for _, dir := range []string{"cmd", "internal", "bench"} {
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
					switch d := d.(type) {
					case *ast.GenDecl:
						for _, s := range d.Specs {
							if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() && ts.Name.IsExported() {
								aliased[typeName(ts.Type)] = true
							}
						}
					case *ast.FuncDecl:
						declared[d.Name] = true
						if d.Name.IsExported() {
							recv := ""
							if d.Recv != nil {
								recv = typeName(d.Recv.List[0].Type)
							}
							decls = append(decls, decl{d.Name.Name, recv, d.Name.Pos()})
						}
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
		if d.recv != "" && !token.IsExported(d.recv) && !aliased[d.recv] {
			continue // a method on an unexported type is not surface
		}
		if surfaceAllow[d.name] || d.name == "String" {
			continue
		}
		if selectors[d.name] || (d.recv == "" && idents[d.name]) {
			continue
		}
		dead = append(dead, fset.Position(d.pos).String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test source: %s", d)
	}
}

// typeName is the name of the type a receiver or alias denotes,
// through one pointer and type arguments; "" for any other form.
func typeName(typ ast.Expr) string {
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
