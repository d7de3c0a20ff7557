package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowlist holds the exported internal/ functions and methods that
// TestNoTestOnlyInternalAPI cannot see a caller for but that must stay, keyed
// as "pkg.Func" or "pkg.Recv.Method", each with the reason it stays.
var deadAPIAllowlist = map[string]string{}

// TestNoTestOnlyInternalAPI fails when an exported function or method
// declared under internal/ has no reference outside _test.go files. The scan
// is by name, over every non-test Go file of the tree (benchmark/ and
// examples/ included, testdata/ and dot-directories such as .bench_build/
// skipped): a declaration counts as used when its name appears as an
// identifier anywhere else, as a call, a method value or an interface method.
// Names shared with other declarations can hide a dead function, never
// invent one.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if internal && fn.Name.IsExported() {
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	stale := maps.Clone(deadAPIAllowlist)
	for _, d := range decls {
		if _, ok := deadAPIAllowlist[d.key]; !ok && !used[d.name] {
			dead = append(dead, d.pos.String()+": "+d.key)
		}
		delete(stale, d.key)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("exported internal/ API with no caller outside tests (delete it, make the test use an unexported helper, or allowlist it with a reason):\n\t%s",
			strings.Join(dead, "\n\t"))
	}
	for key := range stale {
		t.Errorf("deadAPIAllowlist names %s, which is no longer declared", key)
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[K]
// and *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
