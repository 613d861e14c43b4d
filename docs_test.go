package repro_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// docFiles are the documents whose code references TestDocsReferToCode
// resolves. bench/README.md is not among them: bench/ is the benchmark's
// own program and changes only together with the benchmark, so its
// README is brought up to date there.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// docAllow lists names the documents may quote that no source in this
// repository declares, each with the reason it is quoted.
var docAllow = map[string]string{
	"MPI_Isend":              "MPI standard: the paper's NSR send",
	"MPI_Iprobe":             "MPI standard: the paper's NSR probe",
	"MPI_Recv":               "MPI standard: the paper's NSR receive",
	"MPI_Put":                "MPI standard: the paper's RMA put",
	"MPI_Win_flush_all":      "MPI standard: the paper's RMA flush",
	"MPI_Neighbor_alltoall":  "MPI standard: the paper's NCL count exchange",
	"MPI_Neighbor_alltoallv": "MPI standard: the paper's NCL payload exchange",
	"MPI_ANY_SOURCE":         "MPI standard: the wildcard source mpi.AnySource stands for",
	"MPI_Comm_dup":           "MPI standard: the idiom behind a detector's private context",
	"MPI_Improbe":            "MPI standard: matched probe, the model for Comm.IprobeRecvInto",
	"MPI_Mrecv":              "MPI standard: matched receive, the model for Comm.IprobeRecvInto",
	"sync.Pool":              "Go standard library: the message pool and distgraph's count scratch",
	"sync.Once":              "Go standard library: the key-order index is built under one",
	"GOMAXPROCS":             "Go runtime: the processor count, set by the environment or runtime.GOMAXPROCS",
	"strconv.FormatFloat":    "Go standard library: the reference AppendUsec matches",
	"strconv.AppendInt":      "Go standard library: the Chrome writer's integer path",
	"testing.AllocsPerRun":   "Go standard library: the zero-allocation contracts",
	"io.Writer":              "Go standard library: what the Chrome writer writes to",
	"McKee":                  "Cuthill-McKee, the ordering RCM reverses",
	"SuiteSparse":            "the matrix collection the paper's real inputs come from",
}

// codeIndex is what a document's references resolve against: every
// name the repository's Go sources declare, read with go/parser (no type
// information), Go's predeclared names, the sources' string constants
// (experiment ids, environment variables, JSON names), benchmark metric
// names, files and make targets.
type codeIndex struct {
	decls    map[string]bool            // every declared identifier
	pkgDecls map[string]map[string]bool // package name -> its top-level names
	members  map[string]map[string]bool // type name -> its fields and methods
	embeds   map[string][]string        // type name -> embedded type names
	strs     map[string]bool            // string literals and json tag names
	metrics  map[string]bool            // BENCHMARK.json metric and workload names
	files    []string                   // every file, slash-separated, from the root
	targets  map[string]bool            // Makefile targets
	makefile string
}

func loadCodeIndex(t *testing.T, root string) *codeIndex {
	t.Helper()
	ix := &codeIndex{
		decls: map[string]bool{}, pkgDecls: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{},
		strs: map[string]bool{}, metrics: map[string]bool{}, targets: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ix.files = append(ix.files, filepath.ToSlash(rel))
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.addFile(f, rel == selfFile)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]struct{ Name string }{bench.Workloads, bench.EndToEnd, bench.PerLayer} {
		for _, m := range list {
			ix.metrics[m.Name] = true
		}
	}

	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	ix.makefile = string(mk)
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z][\w-]*):`).FindAllStringSubmatch(ix.makefile, -1) {
		ix.targets[m[1]] = true
	}
	return ix
}

// selfFile holds this test, whose fixtures quote dead names as strings.
const selfFile = "docs_test.go"

// addFile indexes one source file; self leaves out its string literals.
func (ix *codeIndex) addFile(f *ast.File, self bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test") // an external test package documents its package
	ix.decls[pkg] = true
	if ix.pkgDecls[pkg] == nil {
		ix.pkgDecls[pkg] = map[string]bool{}
	}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.pkgDecls[pkg][d.Name.Name] = true
			} else {
				member(recvType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ix.pkgDecls[pkg][s.Name.Name] = true
					if s.Assign.IsValid() { // an alias has its target's members
						ix.embeds[s.Name.Name] = append(ix.embeds[s.Name.Name], recvType(s.Type))
					}
					ix.addType(s.Name.Name, s.Type, member)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.pkgDecls[pkg][n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ix.decls[n.Name.Name] = true
		case *ast.TypeSpec:
			ix.decls[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				ix.decls[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				ix.decls[id.Name] = true
			}
			if n.Tag != nil {
				if tag, err := strconv.Unquote(n.Tag.Value); err == nil {
					name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
					ix.strs[name] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						ix.decls[id.Name] = true
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && !self {
				if s, err := strconv.Unquote(n.Value); err == nil {
					ix.strs[s] = true
				}
			}
		}
		return true
	})
}

// addType records the fields, interface methods and embedded types of
// a type declaration.
func (ix *codeIndex) addType(name string, typ ast.Expr, member func(typ, name string)) {
	var fields []*ast.Field
	switch t := typ.(type) {
	case *ast.StructType:
		fields = t.Fields.List
	case *ast.InterfaceType:
		fields = t.Methods.List
	}
	for _, fd := range fields {
		if len(fd.Names) == 0 {
			if emb := recvType(fd.Type); emb != "" {
				ix.embeds[name] = append(ix.embeds[name], emb)
				member(name, emb)
			}
		}
		for _, id := range fd.Names {
			member(name, id.Name)
		}
	}
}

// recvType is the name of the type a receiver, embedded field or alias
// denotes, through one pointer, a package qualifier and type arguments.
func recvType(typ ast.Expr) string {
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	switch t := typ.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// hasMember reports whether type typ, or a type it embeds, declares name.
func (ix *codeIndex) hasMember(typ, name string, seen map[string]bool) bool {
	if ix.members[typ][name] {
		return true
	}
	if seen[typ] {
		return false
	}
	seen[typ] = true
	for _, emb := range ix.embeds[typ] {
		if ix.hasMember(emb, name, seen) {
			return true
		}
	}
	return false
}

// resolveName reports whether a dotted Go name resolves. A leading
// package name must be followed by one of its top-level names; a type
// name by one of its fields or methods; any other chain (a variable's
// fields, say) needs each part declared somewhere.
func (ix *codeIndex) resolveName(name string) bool {
	if ix.metrics[name] || ix.strs[name] {
		return true
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return ix.decls[name] || ix.targets[name] || types.Universe.Lookup(name) != nil
	}
	i := 0
	if top, ok := ix.pkgDecls[parts[0]]; ok {
		if !top[parts[1]] {
			return false
		}
		i = 1
	}
	for ; i+1 < len(parts); i++ {
		if ix.members[parts[i]] != nil || ix.embeds[parts[i]] != nil {
			if !ix.hasMember(parts[i], parts[i+1], map[string]bool{}) {
				return false
			}
			continue
		}
		if !ix.decls[parts[i]] || !ix.decls[parts[i+1]] {
			return false
		}
	}
	return true
}

// resolveFile reports whether a quoted file or directory name is a file
// of the repository, or the tail of one, or an output the Makefile
// names.
func (ix *codeIndex) resolveFile(name string) bool {
	name = strings.TrimSuffix(name, "/")
	if strings.Contains(ix.makefile, "/"+name) || strings.Contains(ix.makefile, " "+name) {
		return true
	}
	for _, f := range ix.files {
		if f == name || strings.HasSuffix(f, "/"+name) || strings.HasPrefix(f, name+"/") {
			return true
		}
	}
	return false
}

var (
	fenceRE  = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	spanRE   = regexp.MustCompile("`([^`]+)`")
	goNameRE = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	argsRE   = regexp.MustCompile(`\(.*\)$`)
	fileRE   = regexp.MustCompile(`^[\w./-]+\.(go|md|json|golden|txt|yml)$`)
	pathRE   = regexp.MustCompile(`\b(?:internal|cmd|tools|bench|examples)/[\w./-]*`)
	makeRE   = regexp.MustCompile(`(?:^|[\s;(])make ([a-z][\w-]*)`)
	// In code blocks: dotted references (pkg.Name) and CamelCase words.
	dottedRE = regexp.MustCompile(`\b[a-z]\w*(?:\.\w+)+`)
	camelRE  = regexp.MustCompile(`\b[A-Z][a-z0-9]+[A-Z]\w*\b`)
	// In DESIGN.md §3a: "`A` = 1 µs" or "`A` + `B` ≈ 1 µs".
	costQuoteRE = regexp.MustCompile("((?:`\\w+` \\+ )*`\\w+`) ([=≈]) ([\\d.]+) µs")
	costFieldRE = regexp.MustCompile("`(\\w+)`")
)

// docRef is one reference a document makes that did not resolve.
type docRef struct {
	line int
	kind string // "name", "file", "path" or "make target"
	text string
}

// checkDoc extracts a document's references — repository paths
// anywhere; backticked Go names, file names and make targets; and in
// code blocks, make targets and package-qualified and CamelCase names —
// and returns those that do not resolve, with the number that did.
func (ix *codeIndex) checkDoc(doc string) (dead []docRef, resolved int) {
	check := func(off int, kind, text string, ok bool) {
		if _, allowed := docAllow[text]; allowed || ok {
			resolved++
			return
		}
		dead = append(dead, docRef{strings.Count(doc[:off], "\n") + 1, kind, text})
	}
	// paths and makes check the references in text, which starts at
	// offset base of the document.
	paths := func(base int, text string) {
		for _, r := range pathRE.FindAllStringIndex(text, -1) {
			p := strings.TrimRight(text[r[0]:r[1]], ".-")
			check(base+r[0], "path", p, ix.resolveFile(p))
		}
	}
	makes := func(base int, text string) {
		for _, r := range makeRE.FindAllStringSubmatchIndex(text, -1) {
			check(base+r[2], "make target", text[r[2]:r[3]], ix.targets[text[r[2]:r[3]]])
		}
	}

	// Code blocks first, blanked out so their backticks are not spans.
	prose := []byte(doc)
	for _, m := range fenceRE.FindAllStringSubmatchIndex(doc, -1) {
		body := doc[m[2]:m[3]]
		paths(m[2], body)
		makes(m[2], body)
		for _, r := range dottedRE.FindAllStringIndex(body, -1) {
			ref := body[r[0]:r[1]]
			pkg, _, _ := strings.Cut(ref, ".")
			if _, ok := ix.pkgDecls[pkg]; ok && !strings.HasSuffix(body[:r[0]], "/") {
				check(m[2]+r[0], "name", ref, ix.metrics[ref] || ix.resolveName(goPrefix(ref)))
			}
		}
		for _, r := range camelRE.FindAllStringIndex(body, -1) {
			check(m[2]+r[0], "name", body[r[0]:r[1]], ix.resolveName(body[r[0]:r[1]]))
		}
		for i := m[0]; i < m[1]; i++ {
			if prose[i] != '\n' {
				prose[i] = ' '
			}
		}
	}
	text := string(prose)
	paths(0, text)
	for _, m := range spanRE.FindAllStringSubmatchIndex(text, -1) {
		makes(m[2], text[m[2]:m[3]])
		span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		name := argsRE.ReplaceAllString(span, "")
		switch {
		case fileRE.MatchString(span):
			check(m[2], "file", span, ix.resolveFile(span))
		case goNameRE.MatchString(name):
			check(m[2], "name", name, ix.resolveName(name))
		}
	}
	return dead, resolved
}

// goPrefix cuts a dotted reference at its first part that is not an
// identifier (a metric's "16k", say).
func goPrefix(ref string) string {
	parts := strings.Split(ref, ".")
	for i, p := range parts {
		if !goNameRE.MatchString(p) {
			return strings.Join(parts[:i], ".")
		}
	}
	return ref
}

// TestDocsReferToCode fails when DESIGN.md, README.md or EXPERIMENTS.md
// quotes a Go name, a file, a repository path or a make target that the
// code does not have: a rename or a deletion has to take its prose
// along. Names outside the repository are listed in docAllow.
func TestDocsReferToCode(t *testing.T) {
	ix := loadCodeIndex(t, ".")
	total, quoted, design := 0, map[string]bool{}, ""
	for _, name := range docFiles {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "DESIGN.md" {
			design = string(doc)
		}
		dead, resolved := ix.checkDoc(string(doc))
		total += resolved
		for allowed := range docAllow {
			quoted[allowed] = quoted[allowed] || strings.Contains(string(doc), allowed)
		}
		for _, d := range dead {
			t.Errorf("%s:%d: %s %q resolves to nothing in the code", name, d.line, d.kind, d.text)
		}
	}
	t.Logf("resolved %d references", total)
	if total < 400 {
		t.Fatalf("resolved only %d references in %v: the extraction is broken", total, docFiles)
	}
	for name, why := range docAllow {
		if ix.resolveName(name) {
			t.Errorf("docAllow lists %q (%s), but the code declares it: drop the entry", name, why)
		}
		if !quoted[name] {
			t.Errorf("docAllow lists %q (%s), but no document quotes it: drop the entry", name, why)
		}
	}
	errs, checked := costConstantErrors(design)
	for _, e := range errs {
		t.Error(e)
	}
	if checked < 4 {
		t.Errorf("found %d cost constants in DESIGN.md §3a, want at least 4: the quote pattern no longer matches", checked)
	}
}

// TestDocsCheckReportsOnlyDeadNames runs the extraction over a fragment
// with live, dead and allowlisted references, and the cost-constant
// check over a §3a with one right and one wrong quote.
func TestDocsCheckReportsOnlyDeadNames(t *testing.T) {
	ix := loadCodeIndex(t, ".")
	doc := "Runs start at `mpi.Run(procs, body)`, not `mpi.RunGone`, much as\n" +
		"`MPI_Isend` starts a send. See internal/mpi/cost.go and internal/nowhere.\n" +
		"```sh\nmake tier1\nmake no-such-target\n```\n"
	dead, resolved := ix.checkDoc(doc)
	sort.Slice(dead, func(i, j int) bool { return dead[i].line < dead[j].line })
	want := []docRef{{1, "name", "mpi.RunGone"}, {2, "path", "internal/nowhere"}, {5, "make target", "no-such-target"}}
	if fmt.Sprint(dead) != fmt.Sprint(want) || resolved != 4 {
		t.Errorf("dead = %v, resolved %d; want %v and 4", dead, resolved, want)
	}
	errs, checked := costConstantErrors("# Design\n## 3a. Costs\n* `AlphaNbr` = 12 µs and\n  `AlphaPut` = 0.3 µs.\n## 4. Next\n`AlphaFlush` = 9 µs\n")
	if len(errs) != 1 || !strings.Contains(errs[0], "AlphaPut") || checked != 2 {
		t.Errorf("cost check reported %q over %d quotes; want one error naming AlphaPut over 2", errs, checked)
	}
}

// costConstantErrors holds every cost constant DESIGN.md §3a quotes in
// microseconds ("`AlphaNbr` = 12 µs", "`SendOverhead` + `RecvOverhead`
// ≈ 0.5 µs") to mpi.DefaultCostModel: "=" exactly, "≈" within 10 %. It
// returns a message per mismatch and the number of quotes checked.
func costConstantErrors(design string) (errs []string, checked int) {
	_, sec, _ := strings.Cut(design, "\n## 3a.")
	sec, _, _ = strings.Cut(sec, "\n## ")
	sec = strings.Join(strings.Fields(sec), " ")
	cost := reflect.ValueOf(*mpi.DefaultCostModel())
	for _, m := range costQuoteRE.FindAllStringSubmatch(sec, -1) {
		sum := 0.0
		for _, f := range costFieldRE.FindAllStringSubmatch(m[1], -1) {
			v := cost.FieldByName(f[1])
			if !v.IsValid() {
				errs = append(errs, fmt.Sprintf("§3a quotes %s, which is no CostModel field", f[1]))
				continue
			}
			sum += v.Float()
		}
		quoted, err := strconv.ParseFloat(m[3], 64)
		tol := 1e-9
		if m[2] == "≈" {
			tol = 0.1
		}
		if got := sum * 1e6; err != nil || math.Abs(got-quoted) > tol*got {
			errs = append(errs, fmt.Sprintf("§3a: %s %s %s µs, but DefaultCostModel has %g µs", m[1], m[2], m[3], got))
		}
		checked++
	}
	return errs, checked
}
