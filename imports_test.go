package cloudcache

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageImported fails, naming the package, when an
// internal package is imported by no non-test file outside it: code that
// only its own tests call is dead weight. It reads the imports of every
// non-test Go file in the module; the benchmark module is its own and is
// left out.
func TestEveryInternalPackageImported(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	packages := map[string]bool{}
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == "benchmark" || d.Name() == "testdata" || (file != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(file)))
		if strings.HasPrefix(pkg, module+"/internal/") {
			packages[pkg] = true
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != pkg {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("no internal packages found: is the test running from the module root?")
	}
	var unused []string
	for pkg := range packages {
		if !imported[pkg] {
			unused = append(unused, pkg)
		}
	}
	sort.Strings(unused)
	for _, pkg := range unused {
		t.Errorf("%s: no non-test file outside it imports it", pkg)
	}
}
