package halo_test

import (
	"fmt"
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

// TestInternalExportsHaveReaders fails when a top-level name in internal/ is
// read by no non-test file of the repository: the internal API carries what
// its programs use and nothing for tests alone. The first pass checks
// exported names, the second unexported ones; the second lets the zero value
// of an iota enum through (deleting it would renumber the rest). Methods are
// not checked.
func TestInternalExportsHaveReaders(t *testing.T) {
	decls, unread := unreadExports(t, ".")
	// A wrong root or a parse that silently finds nothing must not pass.
	if decls < 400 {
		t.Fatalf("parsed %d exported declarations in internal/, want at least 400", decls)
	}
	for _, u := range unread {
		t.Errorf("read by no non-test file: %s", u)
	}
}

// TestUnreadExportsFixture runs the scanner over a small tree whose one
// package declares an exported name read in its own package, one read
// through an import and one read only by a test, an unexported name read
// only by a test, and an iota enum whose zero value nothing reads.
func TestUnreadExportsFixture(t *testing.T) {
	decls, unread := unreadExports(t, filepath.Join("testdata", "exports"))
	want := []string{"lonely.Unread internal/lonely/lonely.go:10", "lonely.testOnly internal/lonely/lonely.go:25"}
	if decls != 3 || !slices.Equal(unread, want) {
		t.Fatalf("fixture: %d declarations, unread %q; want 3, %q", decls, unread, want)
	}
}

// unreadExports parses every non-test .go file under root, skipping
// dot-directories and testdata/, and returns how many exported top-level
// names root/internal declares and, as "package.Name file:line", the
// top-level names there that no non-test file reads: as pkg.Name through an
// import of the declaring package, or as Name inside that package. Exported
// names come first, then unexported ones.
func unreadExports(t *testing.T, root string) (int, []string) {
	t.Helper()
	type decl struct {
		pkg, name string
		id        *ast.Ident
	}
	type file struct {
		dir string // import path of the file's package
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{path.Join("halo", filepath.ToSlash(rel)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls, hidden []decl       // exported, unexported
	pkgName := map[string]string{} // import path → package name, for internal/
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "halo/internal/") {
			continue
		}
		pkgName[f.dir] = f.ast.Name.Name
		add := func(id *ast.Ident) {
			switch {
			case id.IsExported():
				decls = append(decls, decl{f.dir, id.Name, id})
			case id.Name != "_" && id.Name != "init":
				hidden = append(hidden, decl{f.dir, id.Name, id})
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for i, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if i == 0 && d.Tok == token.CONST && !id.IsExported() && mentionsIota(s) {
								continue // an enum's zero value
							}
							add(id)
						}
					}
				}
			}
		}
	}

	isDecl := map[*ast.Ident]bool{}
	for _, d := range append(decls, hidden...) {
		isDecl[d.id] = true
	}
	read := map[[2]string]bool{} // {import path, name}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name, ok := pkgName[p]
			if im.Name != nil {
				name, ok = im.Name.Name, true
			}
			if ok {
				imports[name] = p
			}
		}
		var visit func(n ast.Node) bool
		walk := func(n ast.Node) { ast.Inspect(n, visit) }
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.Field: // a field, parameter or result name is no read
				walk(n.Type)
				return false
			case *ast.FuncDecl: // nor is a method's name
				if n.Recv != nil {
					walk(n.Recv)
				}
				walk(n.Type)
				if n.Body != nil {
					walk(n.Body)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						read[[2]string{p, n.Sel.Name}] = true
						return false
					}
				}
				walk(n.X) // x.Name selects a field or method
				return false
			case *ast.Ident:
				if !isDecl[n] {
					read[[2]string{f.dir, n.Name}] = true
				}
			}
			return true
		}
		walk(f.ast)
	}

	var unread []string
	for _, d := range append(decls, hidden...) {
		if !read[[2]string{d.pkg, d.name}] {
			pos := fset.Position(d.id.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			unread = append(unread, fmt.Sprintf("%s.%s %s:%d", pkgName[d.pkg], d.name, filepath.ToSlash(rel), pos.Line))
		}
	}
	return len(decls), unread
}

// mentionsIota reports whether a const spec's values use iota.
func mentionsIota(s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}
