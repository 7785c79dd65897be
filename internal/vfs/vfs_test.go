package vfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineFilesGoThroughVFS keeps the seam whole: no non-test file of
// the packages that own the database's files refers to an os file
// function; they reach their files through an FS.
func TestEngineFilesGoThroughVFS(t *testing.T) {
	banned := map[string]bool{
		"Create": true, "Open": true, "OpenFile": true, "Remove": true, "Rename": true,
		"ReadDir": true, "ReadFile": true, "WriteFile": true, "MkdirAll": true, "Stat": true,
	}
	for _, pkg := range []string{"lsm", "wal", "core"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in internal/%s", pkg)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			osName := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == strconv.Quote("os") {
					osName = "os"
					if imp.Name != nil {
						osName = imp.Name.Name
					}
				}
			}
			if osName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName && banned[sel.Sel.Name] {
						t.Errorf("%s: os.%s bypasses vfs", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
