package streamxpath_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// restricted lists constructors that only some of the repository's non-test
// code may name: the package that declares them, and the directories and
// files allowed to.
var restricted = []struct {
	pkg     string
	names   []string
	allowed []string
}{
	// The string tokenizer (sax.NewTokenizer, or sax.Parse, which wraps
	// one) is the independent side of every differential —
	// FuzzTokenizerBytes checks the byte tokenizer against it, internal/tree
	// and so internal/semantics parse with it, internal/core runs on its
	// events — which is worth something only while no matcher tokenizes
	// with it too. It is named by its own package, the document trees every
	// oracle is built on, the paper's reference filter and its
	// communication protocols, and the programs that demonstrate those. Of
	// these the library links only the trees and the oracle, which back the
	// full-grammar Query.Evaluate and MatchDocument; CI's link guard keeps
	// internal/core off its link graph.
	{"streamxpath/internal/sax", []string{"NewTokenizer", "Parse"}, []string{
		"internal/sax", "internal/tree", "internal/core", "internal/commcc",
		"cmd/xpexperiments", "examples",
	}},
	// The deprecated names of the replica pool stay for the benchmark
	// ledger alone; everything else constructs a FilterPool.
	{"streamxpath", []string{"NewParallelFilterSet", "NewAdaptiveFilterSet"}, []string{"parallelset.go", "bench"}},
}

// TestStringTokenizerIsReferenceOnly pins sax.Tokenizer's role, and with
// the same walk every other entry of restricted.
func TestStringTokenizerIsReferenceOnly(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		p = filepath.ToSlash(p)
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, r := range restricted {
			if slices.ContainsFunc(r.allowed, func(a string) bool { return p == a || strings.HasPrefix(p, a+"/") }) {
				continue
			}
			// Inside the declaring package the names are bare identifiers;
			// elsewhere they are selected from the file's name for it.
			home := path.Dir(p) == path.Join(".", strings.TrimPrefix(r.pkg, "streamxpath"))
			pkg := ""
			for _, imp := range file.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); ip == r.pkg {
					pkg = path.Base(r.pkg)
					if imp.Name != nil {
						pkg = imp.Name.Name
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && pkg != "" && x.Name == pkg && slices.Contains(r.names, n.Sel.Name) {
						t.Errorf("%s: %s.%s named outside %v", fset.Position(n.Pos()), pkg, n.Sel.Name, r.allowed)
					}
				case *ast.Ident:
					if home && slices.Contains(r.names, n.Name) {
						t.Errorf("%s: %s named outside %v", fset.Position(n.Pos()), n.Name, r.allowed)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
