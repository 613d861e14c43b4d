package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow is the exported API kept without a non-test caller, each
// entry (package.Func or package.Type.Method) with its reason. An entry
// that a non-test source names, or that names nothing, fails the test.
// String methods are exempt too (fmt reaches them through the Stringer
// interface, not by name).
var surfaceAllow = map[string]string{
	"mpi.RunChecked":                 "test support: a run plus the ledger and goroutine checks",
	"mpi.CheckDrained":               "test support: the ledger check plus an empty mailbox",
	"sched.Explore":                  "test support: the perturbation explorer make perturb runs",
	"sched.Replay":                   "test support: re-runs one PERTURB_SEED repro line",
	"sched.FromEnv":                  "test support: reads the explorer's environment",
	"shape.Checks":                   "test support: the predicates TestPaperShapes evaluates",
	"shape.ParseScale":               "test support: reads SHAPE_SCALE for TestPaperShapes",
	"matching.Greedy":                "oracle: the serial greedy matching tests compare against",
	"matching.VerifyLocallyDominant": "oracle: the locally-dominant property tests assert",
	"order.IsPermutation":            "checker: order and rng tests assert it",
	"graph.CSR.AvgDegree":            "checker: graph and gen tests assert the degree they built",
	"graph.CSR.MaxDegree":            "checker: gen and coloring tests assert degree bounds",
	"telemetry.Series.Final":         "checker: telemetry and matching tests read a series' last value",
	"sched.Profile.NumClasses":       "checker: the external explorer tests count a shrunk profile's classes",
}

// TestExportedSurfaceIsCalled fails when a package under internal/
// exports a func or method that no non-test source of cmd/, internal/,
// tools/ or bench/ names: each package carries what runs, nothing else.
// It is syntactic (go/parser, no type information). A package-level
// func counts as named by a bare identifier inside its own package or by
// a .Name selector in a file that imports the package; a method counts
// as named by any .Name selector in the module, since its value may
// arrive through another package. A method whose name some other type
// also uses (Wait, say) can therefore slip through; a name nobody writes
// cannot. A method is exported when its receiver type is, or when an
// exported alias names the type (WinHandle = *winView).
func TestExportedSurfaceIsCalled(t *testing.T) {
	type decl struct {
		pkg, recv, name string // recv is "" for a package-level func
		pos             token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	aliased := map[string]bool{}   // pkg.type for unexported types an exported alias names
	idents := map[string]bool{}    // pkg.Name for bare identifiers inside each package
	imported := map[string]bool{}  // pkg.Name for .Name selectors in files importing pkg
	selectors := map[string]bool{} // .Name selectors anywhere in the module

	for _, dir := range []string{"cmd", "internal", "tools", "bench"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			own := ""
			if rel := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(rel, "internal/") {
				own = strings.TrimPrefix(rel, "internal/")
			}
			var imports []string
			for _, im := range f.Imports {
				if ip := strings.Trim(im.Path.Value, `"`); strings.HasPrefix(ip, "repro/internal/") {
					imports = append(imports, path.Base(ip))
				}
			}
			declared := map[*ast.Ident]bool{}
			if own != "" {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.GenDecl:
						for _, s := range d.Specs {
							if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() && ts.Name.IsExported() {
								aliased[own+"."+typeName(ts.Type)] = true
							}
						}
					case *ast.FuncDecl:
						declared[d.Name] = true
						if d.Name.IsExported() {
							recv := ""
							if d.Recv != nil {
								recv = typeName(d.Recv.List[0].Type)
							}
							decls = append(decls, decl{own, recv, d.Name.Name, d.Name.Pos()})
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
					for _, pkg := range imports {
						imported[pkg+"."+n.Sel.Name] = true
					}
					declared[n.Sel] = true
				case *ast.Ident:
					if own != "" && !declared[n] {
						idents[own+"."+n.Name] = true
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

	perPkg := map[string]int{}
	allowed := map[string]bool{} // surfaceAllow entries that excused a decl
	var dead []string
	for _, d := range decls {
		perPkg[d.pkg]++
		if d.recv != "" && !token.IsExported(d.recv) && !aliased[d.pkg+"."+d.recv] {
			continue // a method on an unexported type is not surface
		}
		key := d.pkg + "." + d.name
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
		}
		if d.name == "String" || d.recv == "" && (idents[key] || imported[key]) || d.recv != "" && selectors[d.name] {
			continue
		}
		if _, ok := surfaceAllow[key]; ok {
			allowed[key] = true
			continue
		}
		dead = append(dead, fset.Position(d.pos).String()+": "+key)
	}
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages under internal/: the walk is broken")
	}
	for _, dir := range dirs {
		if pkg := filepath.Base(dir); perPkg[pkg] == 0 {
			t.Fatalf("found no exported func in internal/%s: the walk is broken", pkg)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test source: %s", d)
	}
	for key := range surfaceAllow {
		if !allowed[key] {
			t.Errorf("surfaceAllow[%q] excuses nothing (a non-test source names it, or it is gone): drop the entry", key)
		}
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
