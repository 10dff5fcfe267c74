package rcmp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The simulator keeps no process-global state: everything a run mutates
// lives in a mapreduce.Context, whose owner (an experiments.Worker, or any
// caller of NewContext) decides when it is reused. So the non-test files of
// the simulator's packages may declare no package-level variable except an
// interface assertion (var _ I = …) or an entry on the allow-list below,
// each with the reason it is not mutable state. An entry that matches
// nothing is itself a violation, so the list cannot go stale.

// globalsPackages are the packages a simulation runs in (the event loop,
// flow network, cluster, DFS, lineage, metrics and job graph under the
// driver), the recovery planner and cursor every engine drives, and the
// analytic twin.
var globalsPackages = []string{
	"internal/analytic", "internal/cluster", "internal/core", "internal/des", "internal/dfs", "internal/flow",
	"internal/lineage", "internal/mapreduce", "internal/metrics", "internal/middleware",
}

// globalsAllowed are the package-level variables that stay, as
// "pkg.name" keys, each with the reason.
var globalsAllowed = map[string]string{
	"mapreduce.taskTransitions": "read-only table of the legal task-state transitions; only lifecycle.go's checks read it",
}

// packageVars returns the package-level variables declared in the non-test
// files of dir, as sorted "pkg.name" keys, skipping interface assertions.
func packageVars(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, id := range vs.Names {
					if id.Name == "_" && vs.Type != nil {
						continue // var _ I = …: a compile-time check, no storage
					}
					out = append(out, f.Name.Name+"."+id.Name)
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// globalsViolations checks the declared variables against the allow-list:
// an unlisted variable is a violation, and so is a listed one that no
// longer exists.
func globalsViolations(vars []string, allowed map[string]string) []string {
	var out []string
	used := map[string]bool{}
	for _, v := range vars {
		if allowed[v] != "" {
			used[v] = true
			continue
		}
		out = append(out, fmt.Sprintf("%s is a package-level variable: state a simulation mutates belongs in a mapreduce.Context or its owner; make it a field or a constant, or allow-list a read-only table with a reason", v))
	}
	for key := range allowed {
		if !used[key] {
			out = append(out, fmt.Sprintf("allow-list entry %s matches no package-level variable: remove it", key))
		}
	}
	sort.Strings(out)
	return out
}

func TestNoProcessGlobalsInSimulator(t *testing.T) {
	for key, reason := range globalsAllowed {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", key)
		}
	}
	var vars []string
	for _, dir := range globalsPackages {
		v, err := packageVars(dir)
		if err != nil {
			t.Fatal(err)
		}
		vars = append(vars, v...)
	}
	for _, v := range globalsViolations(vars, globalsAllowed) {
		t.Error(v)
	}
}

// The guard must see what it is meant to see: the fixture declares two
// interface assertions (skipped), a test file's variable (skipped) and four
// variables, one of them an initialised table and two in a var block.
func TestNoProcessGlobalsNegativeFixture(t *testing.T) {
	got, err := packageVars("testdata/globals")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"globals.counter", "globals.table", "globals.x", "globals.y"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("package-level variables of the fixture: got %v, want %v", got, want)
	}
	if v := globalsViolations(got, nil); len(v) != len(want) {
		t.Fatalf("unlisted variables must be violations, got %q", v)
	}
	ok := map[string]string{"globals.counter": "fixture", "globals.table": "fixture", "globals.x": "fixture", "globals.y": "fixture"}
	if v := globalsViolations(got, ok); len(v) != 0 {
		t.Fatalf("fully allow-listed fixture reported %q", v)
	}
	ok["globals.gone"] = "deleted long ago"
	if v := globalsViolations(got, ok); len(v) != 1 || !strings.Contains(v[0], "globals.gone") {
		t.Fatalf("stale allow-list entry not reported: %q", v)
	}
}
