package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// exportedExperimentFuncs parses this package's sources and returns every
// exported function with the experiment signature func(Config) *Result.
// This is the ground truth Registry() is checked against, so a new Fig* or
// Ablation* function cannot silently miss the runner and the CLI.
func exportedExperimentFuncs(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		for fname, file := range pkg.Files {
			if strings.HasSuffix(fname, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				if isExperimentSignature(fd.Type) {
					out[fd.Name.Name] = true
				}
			}
		}
	}
	return out
}

// isExperimentSignature reports whether a func type is
// func(Config) (*Result, error).
func isExperimentSignature(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 1 {
		return false
	}
	if ft.Results == nil || len(ft.Results.List) != 2 {
		return false
	}
	param, ok := ft.Params.List[0].Type.(*ast.Ident)
	if !ok || param.Name != "Config" {
		return false
	}
	// A single unnamed or named Config parameter both count.
	if len(ft.Params.List[0].Names) > 1 {
		return false
	}
	star, ok := ft.Results.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	res, ok := star.X.(*ast.Ident)
	if !ok || res.Name != "Result" {
		return false
	}
	errIdent, ok := ft.Results.List[1].Type.(*ast.Ident)
	return ok && errIdent.Name == "error"
}

// funcName resolves a Spec.Run pointer back to its function name.
func funcName(f func(Config) (*Result, error)) string {
	full := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	if i := strings.LastIndex(full, "."); i >= 0 {
		return full[i+1:]
	}
	return full
}

func TestRegistryCoversEveryExperimentExactlyOnce(t *testing.T) {
	want := exportedExperimentFuncs(t)
	if len(want) == 0 {
		t.Fatal("source scan found no experiment functions; test is broken")
	}

	counts := make(map[string]int)
	keys := make(map[string]int)
	for _, sp := range Registry() {
		if sp.Run == nil {
			t.Fatalf("spec %q has nil Run", sp.Key)
		}
		fn := funcName(sp.Run)
		if fn != sp.Name {
			t.Errorf("spec %q: Name is %q but Run is %s", sp.Key, sp.Name, fn)
		}
		counts[fn]++
		keys[sp.Key]++
	}
	for key, n := range keys {
		if n != 1 {
			t.Errorf("CLI key %q registered %d times", key, n)
		}
	}
	for fn := range want {
		if counts[fn] != 1 {
			t.Errorf("experiment %s appears %d times in Registry(), want exactly 1", fn, counts[fn])
		}
	}
	for fn := range counts {
		if !want[fn] {
			t.Errorf("Registry() entry %s is not an exported experiment function of this package", fn)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("8a"); !ok {
		t.Fatal("Lookup(8a) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}
