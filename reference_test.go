package streamxpath_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// referenceTokenizerUsers are the directories whose non-test code may
// construct the string tokenizer (sax.NewTokenizer, or sax.Parse, which
// wraps one): the tokenizer's own package, the document trees every oracle
// is built on, the paper's reference filter and evaluators, and the
// programs that demonstrate those.
var referenceTokenizerUsers = []string{
	"internal/sax", "internal/tree", "internal/core", "internal/streameval", "internal/commcc",
	"cmd/xpexperiments", "examples",
}

// TestStringTokenizerIsReferenceOnly pins sax.Tokenizer's role. It is the
// independent side of every differential — FuzzTokenizerBytes checks the
// byte tokenizer against it, internal/tree and so internal/semantics parse
// with it, internal/core runs on its events — which is worth something only
// while nothing that ships tokenizes with it too.
func TestStringTokenizerIsReferenceOnly(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			for _, dir := range referenceTokenizerUsers {
				if filepath.ToSlash(path) == dir {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "streamxpath/internal/sax" {
				pkg = "sax"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && (sel.Sel.Name == "NewTokenizer" || sel.Sel.Name == "Parse") {
				t.Errorf("%s: %s.%s constructs the reference tokenizer outside %v",
					fset.Position(sel.Pos()), pkg, sel.Sel.Name, referenceTokenizerUsers)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
