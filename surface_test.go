package mobistreams

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"sync"
	"testing"
)

// The surface checks hold the repository to "a value no caller sets is a
// constant, and a name no other package uses is not exported". One loader
// type-checks every package of both modules (examples/ included) from
// source, test files too, in one go/types universe; both checks read it.

// surfaceModules are the module directories whose code counts as a user.
var surfaceModules = []string{".", "benchmark"}

// guardedConfigs are the config structs whose every exported field must be
// set by some non-test code: a field nobody sets is an option nobody needs.
var guardedConfigs = []string{
	"mobistreams.SystemConfig",
	"mobistreams.RegionSpec",
	"mobistreams/internal/bench.Params",
	"mobistreams/internal/apps/bcp.Params",
	"mobistreams/internal/apps/signalguru.Params",
	"mobistreams/internal/broadcast.Config",
	"mobistreams/internal/controller.Config",
	"mobistreams/internal/graph.KeyedGroupSpec",
	"mobistreams/internal/graph.operatorSpec",
	"mobistreams/internal/node.CheckpointConfig",
	"mobistreams/internal/node.Config",
	"mobistreams/internal/node.QoS",
	"mobistreams/internal/phone.Config",
	"mobistreams/internal/region.Config",
	"mobistreams/internal/server.Config",
	"mobistreams/internal/simnet.CellularConfig",
	"mobistreams/internal/simnet.WiFiConfig",
	"mobistreams/internal/workload.BCPBusConfig",
	"mobistreams/internal/workload.BCPCameraConfig",
	"mobistreams/internal/workload.ChurnConfig",
	"mobistreams/internal/workload.SGCameraConfig",
	"mobistreams/internal/workload.SGUpstreamConfig",
	"mobistreams/internal/xregion.Spec",
}

// unsetAllowed lists guarded fields that may stay unset, as
// "importpath.Type.Field" → reason.
var unsetAllowed = map[string]string{
	"mobistreams.SystemConfig.AdaptivePlacement":       "TestSystemAdaptivePlacement: the public API's one switch for the placement planner",
	"mobistreams/internal/node.QoS.MaxBatchMsgs":       "TestIngressBatchingThroughput runs one edge unbatched (1) and batched (12)",
	"mobistreams/internal/simnet.WiFiConfig.PropDelay": "TestIngressBatchingThroughput: the per-send delay that batching amortises",
}

// exportChecked is the import-path prefix whose exported names must each
// have a user outside their own package.
const exportChecked = "mobistreams/internal/"

// unusedAllowed lists exported names in internal/ that may have no user
// outside their package, as "importpath.Name" or "importpath.Type.Method"
// → reason.
var unusedAllowed = map[string]string{
	"mobistreams/internal/wire.AppendCkptChunk":    "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.AppendFetchBlob":    "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.AppendPreserve":     "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.AppendResend":       "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.AppendTruncate":     "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeBatch":          "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeCkptChunk":      "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeFetchBlob":      "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeHello":          "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizePreserve":       "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeReport":         "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeResend":         "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.SizeTruncate":       "ROADMAP item 21: the node's wire path encodes and sizes this kind",
	"mobistreams/internal/wire.DecodeAny":          "FuzzDecodeAny drives every decoder through it; item 21's receive path dispatches with it",
	"mobistreams/internal/region.Region.LivePeers": "TestConcurrentFailDepartUnregister (the package's external test) checks an unregistered phone leaves the dissemination targets",
}

var loadRepoSurface = sync.OnceValues(func() (*surface, error) { return loadSurface(surfaceModules...) })

// repoSurface returns the type-checked repository, loaded once per process.
func repoSurface(t *testing.T) *surface {
	t.Helper()
	s, err := loadRepoSurface()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConfigFieldsHaveSetters: every exported field of a guarded config
// struct is set by non-test code somewhere in either module: a key of a
// composite literal of the struct, or a selector on the left of an
// assignment or behind an & (a flag or decoder filling the field), nested
// selectors included (spec.QoS.LatencyBudget = … sets spec.QoS too).
// Setting a field in the struct's own methods does not count: they fill in
// defaults, they do not configure.
func TestConfigFieldsHaveSetters(t *testing.T) {
	s := repoSurface(t)
	findings, fields := s.unsetFields(guardedConfigs, unsetAllowed)
	t.Logf("%d guarded structs, %d exported fields", len(guardedConfigs), fields)
	for _, f := range findings {
		t.Error(f)
	}
}

// TestExportsHaveUsers: every exported package-level name and method in
// internal/ is used outside its own package, by non-test code of either
// module or by another package's tests. A method counts as used when its
// type, or a type embedding it, satisfies an interface whose method is
// called, or one from the standard library (fmt.Stringer, sort.Interface,
// …).
func TestExportsHaveUsers(t *testing.T) {
	s := repoSurface(t)
	findings, exports := s.unusedExports(exportChecked, unusedAllowed)
	t.Logf("%d exported names and methods under %s", exports, exportChecked)
	for _, f := range findings {
		t.Error(f)
	}
}

// TestSurfaceChecksSelfTest runs both checks over testdata/surface, a
// small module with one offender of each kind, and pins every verdict.
func TestSurfaceChecksSelfTest(t *testing.T) {
	s, err := loadSurface(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	unset, _ := s.unsetFields([]string{"surfacetest/internal/lib.Config"}, map[string]string{
		"surfacetest/internal/lib.Config.Stale": "a stale entry: the field does not exist",
	})
	unused, _ := s.unusedExports("surfacetest/internal/", map[string]string{
		"surfacetest/internal/lib.Used": "a stale entry: the name is used",
	})
	got := strings.Join(append(unset, unused...), "\n")
	want := strings.Join([]string{
		"surfacetest/internal/lib.Config.Unset has no setter outside tests: make it a constant or delete it, or allowlist it with a reason",
		"allowlist entry surfacetest/internal/lib.Config.Stale is stale: the field is gone or now set",
		"surfacetest/internal/lib.Facet.Edges is used by no code outside tests: delete it",
		"surfacetest/internal/lib.Helper is used only inside its package: unexport it",
		"surfacetest/internal/lib.Square.Corners is used by no code outside tests: delete it",
		"surfacetest/internal/lib.TestOnly is used by no code outside tests: delete it",
		"surfacetest/internal/lib.Unused is used by no code outside tests: delete it",
		"allowlist entry surfacetest/internal/lib.Used is stale: the name is gone or now used",
	}, "\n")
	if got != want {
		t.Errorf("verdicts:\n%s\nwant:\n%s", got, want)
	}
}

// A surfaceUnit is one type-checked set of files: a package, its
// in-package tests (with the package's files) or its external tests.
type surfaceUnit struct {
	owner string // import path of the package under test, for tests too
	test  bool
	files []*ast.File
	info  *types.Info
}

type surface struct {
	units []*surfaceUnit
	pkgs  []*types.Package // the modules' packages, non-test, in dependency order
	std   []*types.Package // standard packages the modules import
}

type listedPackage struct {
	ImportPath, Dir, Export, ForTest string
	GoFiles, TestGoFiles             []string
	XTestGoFiles                     []string
	Standard                         bool
}

// loadSurface type-checks every package of the modules in dirs, and their
// tests, from source; standard packages come from the compiler's export
// data. Only the standard packages are compiled for it, and they are
// usually in the build cache already.
func loadSurface(dirs ...string) (*surface, error) {
	var listed []listedPackage
	var std []string
	seen := make(map[string]bool)
	for _, dir := range dirs {
		pkgs, err := listPackages(dir, "-deps", "-test", "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
				if p.Standard {
					std = append(std, p.ImportPath)
				}
			}
		}
	}
	stdPkgs, err := listPackages(dirs[0], append([]string{"-export"}, std...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range stdPkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	source := make(map[string]*types.Package)
	stdSeen := make(map[*types.Package]bool)
	s := &surface{}
	check := func(path string, files []*ast.File) (*types.Package, *types.Info, error) {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := source[path]; p != nil {
				return p, nil
			}
			p, err := gc.Import(path)
			if err == nil && !stdSeen[p] {
				stdSeen[p] = true
				s.std = append(s.std, p)
			}
			return p, err
		})}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", path, err)
		}
		return pkg, info, nil
	}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}

	type tests struct {
		p     listedPackage
		files []*ast.File
	}
	var pending []tests
	for _, p := range listed {
		if p.Standard {
			continue
		}
		files, err := parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, info, err := check(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		source[p.ImportPath] = pkg
		s.pkgs = append(s.pkgs, pkg)
		s.units = append(s.units, &surfaceUnit{owner: p.ImportPath, files: files, info: info})
		pending = append(pending, tests{p, files})
	}
	for _, t := range pending {
		if len(t.p.TestGoFiles) > 0 {
			files, err := parse(t.p.Dir, t.p.TestGoFiles)
			if err != nil {
				return nil, err
			}
			_, info, err := check(t.p.ImportPath, append(files, t.files...))
			if err != nil {
				return nil, err
			}
			s.units = append(s.units, &surfaceUnit{owner: t.p.ImportPath, test: true, files: files, info: info})
		}
		// External tests import the package without its in-package test
		// files, which declare nothing they use. go test would rebuild
		// for them every package that imports the one under test.
		if len(t.p.XTestGoFiles) > 0 {
			files, err := parse(t.p.Dir, t.p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			_, info, err := check(t.p.ImportPath+"_test", files)
			if err != nil {
				return nil, err
			}
			s.units = append(s.units, &surfaceUnit{owner: t.p.ImportPath, test: true, files: files, info: info})
		}
	}
	return s, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// listPackages runs go list in dir with args.
func listPackages(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,TestGoFiles,XTestGoFiles,Standard"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookupType finds "importpath.Name" among the modules' packages.
func (s *surface) lookupType(name string) *types.TypeName {
	i := strings.LastIndexByte(name, '.')
	for _, p := range s.pkgs {
		if p.Path() == name[:i] {
			tn, _ := p.Scope().Lookup(name[i+1:]).(*types.TypeName)
			return tn
		}
	}
	return nil
}

// unsetFields returns a finding for every exported field of the guarded
// structs that no non-test code sets and allowed does not list, and for
// every stale entry of allowed; and the number of guarded fields.
func (s *surface) unsetFields(structs []string, allowed map[string]string) (findings []string, fields int) {
	names := make(map[*types.Var]string) // guarded field → "importpath.Type.Field"
	for _, name := range structs {
		tn := s.lookupType(name)
		if tn == nil {
			findings = append(findings, fmt.Sprintf("guarded struct %s not found", name))
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				names[f] = name + "." + f.Name()
			}
		}
	}
	set := make(map[string]bool)
	for _, u := range s.units {
		if u.test {
			continue
		}
		for _, f := range u.files {
			for _, decl := range f.Decls {
				markSetters(decl, u.info, func(f *types.Var) {
					if name := names[f.Origin()]; name != "" {
						set[name] = true
					}
				})
			}
		}
	}
	guarded := make(map[string]bool, len(names))
	for _, name := range names {
		guarded[name] = true
		if !set[name] && allowed[name] == "" {
			findings = append(findings, name+" has no setter outside tests: make it a constant or delete it, or allowlist it with a reason")
		}
	}
	sort.Strings(findings)
	for _, name := range sortedKeys(allowed) {
		if !guarded[name] || set[name] {
			findings = append(findings, "allowlist entry "+name+" is stale: the field is gone or now set")
		}
	}
	return findings, len(names)
}

// markSetters calls mark for every struct field that decl sets. A method
// does not set its own receiver type's fields.
func markSetters(decl ast.Decl, info *types.Info, mark func(*types.Var)) {
	var self *types.Struct
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
		self, _ = deref(info.TypeOf(fd.Recv.List[0].Type)).Underlying().(*types.Struct)
	}
	markField := func(f *types.Var, owner types.Type) {
		if st, ok := deref(owner).Underlying().(*types.Struct); !ok || st != self {
			mark(f)
		}
	}
	// markLHS marks the field a selector chain ends in and every field
	// on the way: a.B.C = v sets C and B.
	var markLHS func(e ast.Expr)
	markLHS = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			markLHS(e.X)
		case *ast.StarExpr:
			markLHS(e.X)
		case *ast.IndexExpr:
			markLHS(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				markField(sel.Obj().(*types.Var), sel.Recv())
				markLHS(e.X)
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						markField(f, t)
					}
				} else {
					markField(st.Field(i), t)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markLHS(lhs)
			}
		case *ast.IncDecStmt:
			markLHS(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markLHS(n.X)
			}
		}
		return true
	})
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// unusedExports returns a finding for every exported package-level name
// and method of the packages under prefix that has no user outside its
// package and that allowed does not list, and for every stale entry of
// allowed; and the number of names checked.
func (s *surface) unusedExports(prefix string, allowed map[string]string) (findings []string, checked int) {
	names := make(map[types.Object]string)
	for _, p := range s.pkgs {
		if !strings.HasPrefix(p.Path(), prefix) {
			continue
		}
		for _, n := range p.Scope().Names() {
			obj := p.Scope().Lookup(n)
			if obj.Exported() {
				names[obj] = p.Path() + "." + n
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							names[m] = p.Path() + "." + n + "." + m.Name()
						}
					}
				}
			}
		}
	}

	outside := make(map[types.Object]bool) // used outside its package
	inside := make(map[types.Object]bool)  // used by its package's own code
	var called []*types.Func               // interface methods with a caller
	calledSeen := make(map[*types.Func]bool)
	for _, u := range s.units {
		for _, obj := range u.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				f = f.Origin()
				obj = f
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !calledSeen[f] {
					calledSeen[f] = true
					called = append(called, f)
				}
			}
			if _, ok := names[obj]; !ok {
				continue
			}
			switch {
			case obj.Pkg().Path() != u.owner:
				outside[obj] = true
			case !u.test:
				inside[obj] = true
			}
		}
	}
	// Interfaces whose methods count as called: those with a caller in
	// the modules, and every interface of a standard package the modules
	// import (fmt.Stringer, sort.Interface, …), which the standard
	// library calls.
	ifaces := make(map[string][]*types.Interface) // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, f := range called {
		addIface(f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface))
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range s.std {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
						addIface(it)
					}
				}
			}
		}
	}
	// The modules' named types: a method promoted through an embedded
	// field is called wherever a type embedding it satisfies an interface.
	var embedders []types.Type
	for _, p := range s.pkgs {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					embedders = append(embedders, types.NewPointer(named))
				}
			}
		}
	}
	satisfies := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if named, ok := deref(recv).(*types.Named); ok && named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(deref(recv)), it) {
				return true
			}
			for _, e := range embedders {
				if obj, _, _ := types.LookupFieldOrMethod(e, false, m.Pkg(), m.Name()); obj == m && types.Implements(e, it) {
					return true
				}
			}
		}
		return false
	}

	used := make(map[string]bool, len(names)) // name → has a user outside its package
	for obj, name := range names {
		if m, ok := obj.(*types.Func); ok && !outside[obj] && m.Type().(*types.Signature).Recv() != nil && satisfies(m) {
			outside[obj] = true
		}
		used[name] = outside[obj]
		switch {
		case outside[obj] || allowed[name] != "":
		case inside[obj]:
			findings = append(findings, name+" is used only inside its package: unexport it")
		default:
			findings = append(findings, name+" is used by no code outside tests: delete it")
		}
	}
	sort.Strings(findings)
	for _, name := range sortedKeys(allowed) {
		if u, ok := used[name]; !ok || u {
			findings = append(findings, "allowlist entry "+name+" is stale: the name is gone or now used")
		}
	}
	return findings, len(names)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
