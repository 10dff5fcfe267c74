package rcmp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exported surface of internal/ may not hold a function nothing calls:
// every exported function or method declared in a non-test file there must
// be referenced from some non-test file of the module or of bench/ (the
// frozen benchmark imports internal API from outside), or sit on the
// allow-list below with its reason. The scan is syntactic (go/parser, no
// type checking), so it errs towards "referenced":
//
//   - a package-level function is referenced by pkg.Name in a file that
//     imports its package, or by the bare name inside its own package;
//   - a method is referenced by any selector x.Name anywhere, or by an
//     interface declared in the scanned files that lists Name (its
//     implementations are then called through that interface).
//
// Methods that satisfy an interface declared outside the module are never
// called by name; those names are allow-listed as such.

// surfaceInterfaceMethods are method names called only through standard
// library interfaces.
var surfaceInterfaceMethods = map[string]string{
	"Less":      "sort.Interface",
	"Swap":      "sort.Interface, through container/heap.Interface: des's event heap",
	"GobEncode": "gob.GobEncoder: dmr.RecordBatch's packed wire frame",
	"GobDecode": "gob.GobDecoder: dmr.RecordBatch's packed wire frame",
	"Unwrap":    "errors.Is / errors.As",
}

// surfaceAllowed are exported functions without a non-test caller that stay
// exported, each with the reason: the sole implementation of a paper
// mechanism, or a dependency of another package's tests (an export_test.go
// only reaches the tests of its own package).
var surfaceAllowed = map[string]string{
	"engine.Engine.Evict":              "Section IV-C storage-pressure eviction, sole implementation on the functional engine; pinned by record-level output-equality tests",
	"engine.Engine.ReclaimThrough":     "Section IV-C checkpoint reclamation, sole implementation on the functional engine; pinned by record-level output-equality tests",
	"dmr.Driver.Evict":                 "Section IV-C eviction on the real runtime, sole implementation; pinned by record-level output-equality tests",
	"des.Simulator.RunUntil":           "internal/flow's class, pooling, property and settle tests advance the clock with it",
	"lineage.JobRecord.MappersReading": "internal/core's planner_test.go (the chain oracle, kept unedited) and graphplan_test.go pick mappers by input partition with it",
	"wire.Chaos.Heal":                  "internal/dmr's chaos and shuffle tests heal the partitions they inject",
	"wire.Chaos.HealAll":               "internal/dmr's chaos tests heal every injected partition on cleanup",
}

// surfaceScan returns the exported functions and methods declared in
// non-test files under declRoot that no non-test file under refRoots
// references, as sorted "pkg.Func" / "pkg.Type.Method" keys. declRoot must
// lie under one of refRoots; module is the import-path prefix that maps to
// the directory the roots are relative to.
func surfaceScan(module, declRoot string, refRoots []string) ([]string, error) {
	type export struct {
		key, pkgPath, name string
		method             bool
	}
	var exports []export
	funcRefs := map[string]int{}   // "import/path.Name": qualified or same-package uses
	methodRefs := map[string]int{} // "Name": selector uses and interface declarations
	fset := token.NewFileSet()

	scanFile := func(p string) error {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		notRef := map[*ast.Ident]bool{} // declared names and selector fields: not bare references
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notRef[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(p, declRoot+string(filepath.Separator)) {
				continue
			}
			e := export{key: f.Name.Name + "." + fd.Name.Name, pkgPath: pkgPath, name: fd.Name.Name}
			if fd.Recv != nil {
				e.method = true
				e.key = f.Name.Name + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			exports = append(exports, e)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name]++
					}
				}
				methodRefs[n.Sel.Name]++
				notRef[n.Sel] = true // visited next
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodRefs[name.Name]++
					}
				}
			case *ast.Ident:
				if !notRef[n] {
					funcRefs[pkgPath+"."+n.Name]++
				}
			}
			return true
		})
		return nil
	}
	for _, root := range refRoots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata" && p != root:
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
				return nil
			}
			return scanFile(p)
		})
		if err != nil {
			return nil, err
		}
	}

	var out []string
	for _, e := range exports {
		if e.method && methodRefs[e.name] == 0 || !e.method && funcRefs[e.pkgPath+"."+e.name] == 0 {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

func receiverName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// surfaceViolations checks a scan against the two allow-lists: an
// unreferenced export must be listed, and a listed entry must still match an
// unreferenced export — so neither the surface nor the list can grow stale.
func surfaceViolations(unreferenced []string, allowed, interfaceMethods map[string]string) []string {
	var out []string
	usedAllowed := map[string]bool{}
	usedMethods := map[string]bool{}
	for _, key := range unreferenced {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case allowed[key] != "":
			usedAllowed[key] = true
		case strings.Count(key, ".") == 2 && interfaceMethods[name] != "":
			usedMethods[name] = true
		default:
			out = append(out, fmt.Sprintf("%s is exported but nothing outside tests references it: delete it, unexport it, move it to an export_test.go, or allow-list it with a reason", key))
		}
	}
	for key := range allowed {
		if !usedAllowed[key] {
			out = append(out, fmt.Sprintf("allow-list entry %s matches no unreferenced exported function: remove it", key))
		}
	}
	for name := range interfaceMethods {
		if !usedMethods[name] {
			out = append(out, fmt.Sprintf("interface-method entry %s matches no unreferenced exported method: remove it", name))
		}
	}
	sort.Strings(out)
	return out
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	for name, reason := range surfaceAllowed {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
	unreferenced, err := surfaceScan("rcmp", "internal", []string{"internal", "cmd", "examples", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range surfaceViolations(unreferenced, surfaceAllowed, surfaceInterfaceMethods) {
		t.Error(v)
	}
}

// The scan must see what it is meant to see: on the fixture package, whose
// two files export one called and one uncalled function (and one called
// and one uncalled method), exactly the uncalled ones are reported; and an
// allow-list entry that matches nothing is itself a violation.
func TestExportedSurfaceScanNegativeFixture(t *testing.T) {
	const root = "testdata/surface"
	if _, err := os.Stat(root); err != nil {
		t.Fatal(err)
	}
	got, err := surfaceScan("rcmp", root, []string{root})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"surface.T.UnusedMethod", "surface.Unused"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreferenced exports of the fixture: got %v, want %v", got, want)
	}
	if v := surfaceViolations(got, nil, nil); len(v) != 2 {
		t.Fatalf("unlisted dead exports must be violations, got %q", v)
	}
	ok := map[string]string{"surface.Unused": "fixture", "surface.T.UnusedMethod": "fixture"}
	if v := surfaceViolations(got, ok, nil); len(v) != 0 {
		t.Fatalf("fully allow-listed scan reported %q", v)
	}
	stale := map[string]string{"surface.Unused": "fixture", "surface.T.UnusedMethod": "fixture", "surface.Gone": "deleted long ago"}
	if v := surfaceViolations(got, stale, nil); len(v) != 1 || !strings.Contains(v[0], "surface.Gone") {
		t.Fatalf("stale allow-list entry not reported: %q", v)
	}
	if v := surfaceViolations(got, ok, map[string]string{"Less": "sort.Interface"}); len(v) != 1 || !strings.Contains(v[0], "Less") {
		t.Fatalf("stale interface-method entry not reported: %q", v)
	}
}
