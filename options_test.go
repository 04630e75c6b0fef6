package mobistreams

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// guardedConfigs are the config structs whose every exported field must be
// set by some non-test code in this module, examples/ included, or in the
// benchmark module: a field nobody sets is an option nobody needs.
var guardedConfigs = []string{
	"mobistreams/internal/region.Config",
	"mobistreams/internal/controller.Config",
}

// unsetAllowed lists guarded fields that may stay unset, as
// "mobistreams/internal/pkg.Config.Field" → reason.
var unsetAllowed = map[string]string{}

// TestConfigFieldsHaveSetters type-checks every non-test package of both
// modules and collects the guarded fields that code sets: keys of a
// composite literal of the struct, and selectors on the left of an
// assignment or behind an & (a flag or decoder filling the field). Setting a
// field counts anywhere but in the struct's own methods.
func TestConfigFieldsHaveSetters(t *testing.T) {
	pkgs := append(listPackages(t, "."), listPackages(t, "benchmark")...)
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	guarded := make(map[string]bool)
	set := make(map[string]bool)
	checked := make(map[string]bool)
	for _, p := range pkgs {
		if p.Standard || checked[p.Dir] {
			continue
		}
		checked[p.Dir] = true
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Selections: make(map[*ast.SelectorExpr]*types.Selection)}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		for _, name := range guardedConfigs {
			if i := strings.LastIndexByte(name, '.'); name[:i] == pkg.Path() {
				st := pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Struct)
				for j := 0; j < st.NumFields(); j++ {
					if f := st.Field(j); f.Exported() {
						guarded[name+"."+f.Name()] = true
					}
				}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				markSetters(decl, info, set)
			}
		}
	}

	if len(guarded) == 0 {
		t.Fatal("no guarded config found")
	}
	var unset []string
	for field := range guarded {
		if !set[field] && unsetAllowed[field] == "" {
			unset = append(unset, field)
		}
	}
	for field := range unsetAllowed {
		if !guarded[field] || set[field] {
			t.Errorf("allowlist entry %s is stale: the field is gone or now set", field)
		}
	}
	sort.Strings(unset)
	for _, field := range unset {
		t.Errorf("%s has no setter outside tests: delete it, or allowlist it with a reason", field)
	}
}

// markSetters records in set every "importpath.Type.Field" that decl sets. A
// method of the type itself does not count: it fills in defaults, it does not
// configure.
func markSetters(decl ast.Decl, info *types.Info, set map[string]bool) {
	self := ""
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
		self = typeName(info.TypeOf(fd.Recv.List[0].Type))
	}
	mark := func(owner, field string) {
		if owner != "" && owner != self {
			set[owner+"."+field] = true
		}
	}
	markSelector := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(typeName(s.Recv()), sel.Sel.Name)
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			owner := typeName(info.Types[n].Type)
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						mark(owner, key.Name)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSelector(lhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSelector(n.X)
			}
		}
		return true
	})
}

// typeName names a (pointer to a) named type as "importpath.Name".
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// listPackages lists the packages of the module in dir and their
// dependencies, with the compiler's export data for each.
func listPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}
