package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keep names, by qualified name with the repro/internal/ prefix dropped,
// the exported funcs and methods under internal/ that nothing outside
// tests calls, with the reason each stays.
var keep = map[string]string{
	// Interface methods the standard library calls.
	"(*apps/des.eventHeap).Pop":           "container/heap.Interface",
	"(*apps/des.eventHeap).Push":          "container/heap.Interface",
	"(apps/des.eventHeap).Less":           "container/heap.Interface",
	"(apps/des.eventHeap).Swap":           "container/heap.Interface",
	"(*faultinject.ChaosError).Temporary": "net.Error",
	"(service.Duration).MarshalJSON":      "json.Marshaler",
	"(*service.Duration).UnmarshalJSON":   "json.Unmarshaler",
	"(*service.RejectError).Is":           "errors.Is",
	"(*service/client.BusyError).Is":      "errors.Is",
	"(*speculation.conflictError).Unwrap": "errors.Is",

	// Test oracles: independent checks of what the program computes.
	"(*apps/cluster.Clustering).Sequential": "test oracle: sequential agglomeration the speculative dendrogram is held to",
	"(*apps/maxflow.Network).CheckFlow":     "test oracle: capacity and conservation of a max flow",
	"(*apps/mesh.Mesh).CheckDelaunay":       "test oracle: the Delaunay property of a refined mesh",
	"(*apps/mesh.Mesh).ComputeStats":        "test oracle: triangle quality of a refined mesh",
	"(*apps/mesh.Mesh).Refine":              "test oracle: sequential refinement the speculative mesh is held to",
	"(*faultinject.Config).PoisonPlanCount": "test oracle: exact poisoned-task count of a fault plan",
	"(*graph.Graph).CheckInvariants":        "test oracle: adjacency symmetry and indices of a Graph",
	"graph.GreedyMISSize":                   "test oracle: greedy MIS on the mutable Graph, against the CSR kernel",
	"graph.IsMaximalIndependentSet":         "test oracle: maximality and independence of a selected set",
	"graph.IsProperColoring":                "test oracle: a coloring leaves no edge monochrome",
	"graph.MaxDegreeCSR":                    "test oracle: first-fit uses at most Δ+1 colors",
	"sched.ExactExpectedAborts":             "test oracle: exact k̄(m) by enumeration, against the Monte Carlo estimate",

	// The paper's theory (§3), checked against simulation by the tests.
	"analytic.BLowerConflictBound": "§3: degree-sequence bound on the conflict ratio",
	"analytic.Binomial":            "§3: binomial coefficients of the finite differences",
	"analytic.EMCliqueUnion":       "§3: EM_m of the worst-case graph K^n_d",
	"analytic.FiniteDiff":          "§3: Eq. 2 finite differences",
	"graph.NoEarlierNeighborCount": "§3: IS_m of the proof of Thm. 2",

	// Test seams and probes: how tests inject faults or look inside.
	"(*faultinject.FaultFS).Clear":            "test seam: heals the injected disk fault",
	"(*faultinject.FaultFS).Fail":             "test seam: arms a disk fault",
	"faultinject.NewFaultFS":                  "test seam: a disk that fails on demand",
	"faultinject.FormatChaosPlan":             "test seam: inverse of ParseChaosPlan, for FuzzChaosPlan",
	"(*journal.Journal).Sync":                 "test seam: flushes lazy appends on demand",
	"(*rng.Rand).Int63":                       "test seam: the rand.Source adapter of testing/quick",
	"(*cluster.Agent).Members":                "test probe: the membership view gossiped back",
	"(*faultinject.ChaosListener).Dropped":    "test probe: connections dropped",
	"(*faultinject.ChaosTransport).Delays":    "test probe: delays ChaosTransport injected",
	"(*faultinject.FaultFS).Injected":         "test probe: disk faults injected",
	"(*faultinject.Injector).Delays":          "test probe: injected delays",
	"(*faultinject.Injector).Errors":          "test probe: injected errors",
	"(*faultinject.Injector).Panics":          "test probe: injected panics",
	"(*faultinject.Injector).PoisonPlanned":   "test probe: poison-planned tasks wrapped",
	"(*faultinject.RoundTripper).Injected":    "test probe: faults the RoundTripper injected",
	"(*faultinject.RoundTripper).Passed":      "test probe: requests let through",
	"(*graph.CSR).ID":                         "test probe: the node behind a dense index, inverse of IndexOf",
	"(*graph.CSR).IndexOf":                    "test probe: dense index of a node in a snapshot",
	"(*graph.CSR).NumEdges":                   "test probe: edge count of a snapshot, against its Graph's",
	"(*graph.CSRScratch).MISSize":             "test probe: the greedy-MIS kernel on a given order",
	"(*graph.CSRScratch).Partition":           "test probe: the kernel's selected and rejected nodes on a given order",
	"(*graph.CSRScratch).SampleOrder":         "test probe: the sampling step, checked for uniformity",
	"(*journal.Journal).Err":                  "test probe: the sticky disk error",
	"(*service.Service).Job":                  "test probe: a job's full status, in process",
	"(*speculation.Item).Owner":               "test probe: which attempt holds an item",
	"(*speculation.accounting).PoisonedTasks": "test probe: the poisoned-task records",
	"(*speculation.accounting).TotalLaunched": "test probe: launches, against commits plus aborts",

	// Fixtures of the tests.
	"(*graph.Graph).AddNode":         "test fixture: grows a graph node by node in the fuzz and differential tests",
	"(*graph.Graph).Clone":           "test fixture: an independent copy for differential tests",
	"(*graph.Graph).RemoveEdge":      "test fixture: edge removal the differential test checks",
	"(*graph.Graph).SortedNeighbors": "test fixture: deterministic neighbor lists for goldens",
	"apps/des.NewRouted":             "test fixture: a general routed des network",
	"graph.Complete":                 "test fixture: the complete graph K_n",
	"graph.Cycle":                    "test fixture: the cycle C_n",
	"graph.Empty":                    "test fixture: n isolated nodes",
	"graph.Grid2D":                   "test fixture: the grid graph",
	"graph.New":                      "test fixture: the empty graph the fuzz and differential tests grow",
	"graph.Path":                     "test fixture: the path P_n",
	"graph.Star":                     "test fixture: the star graph",
}

// TestEveryExportedFuncHasACaller type-checks every non-test .go file in
// the repository (bench/, cmd/ and examples/ included, testdata/
// excluded) and fails for any exported func or method declared under
// internal/ that no identifier outside its own declaration refers to. A
// method also counts as called when its type satisfies an interface
// whose method of that name is called. A func that must stay without a
// caller goes into keep with its reason.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		// bench/ is the module repro/bench, so its path fits this scheme.
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	imp := &repoImporter{
		files: files, fset: fset, info: info,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*types.Package{},
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// The exported funcs and methods under internal/, with the extent of
	// each declaration, body included: a recursive call is not a caller.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		for _, f := range files[p] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, decl{info.Defs[fd.Name].(*types.Func), fd.Pos(), fd.End()})
				}
			}
		}
	}

	// uses[fn] lists where fn is referred to; ifaces[name] lists the
	// interfaces whose method name is called.
	uses := map[*types.Func][]token.Pos{}
	ifaces := map[string][]*types.Interface{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		uses[fn] = append(uses[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaces[fn.Name()] = append(ifaces[fn.Name()], it)
			}
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
				return true
			}
		}
		return false
	}

	dead := map[string]string{}
	for _, d := range decls {
		live := satisfies(d.fn)
		for _, p := range uses[d.fn] {
			if p < d.pos || p >= d.end {
				live = true
				break
			}
		}
		if !live {
			dead[strings.ReplaceAll(d.fn.FullName(), "repro/internal/", "")] = fset.Position(d.pos).String()
		}
	}
	var flagged []string
	for name, where := range dead {
		if _, ok := keep[name]; !ok {
			flagged = append(flagged, name+" ("+where+")")
		}
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Errorf("%s has no caller outside tests: delete it, or add it to keep with the reason it stays", f)
	}
	for name, why := range keep {
		if _, ok := dead[name]; !ok {
			t.Errorf("keep lists %s, which has a caller now (or is gone): drop it from keep", name)
		}
		if why == "" {
			t.Errorf("keep lists %s without a reason", name)
		}
	}
}

// repoImporter type-checks the repository's packages from the parsed
// files, recording every package's identifiers in one Info, so that a
// type is the same object wherever it is used; the standard library
// comes from source.
type repoImporter struct {
	files   map[string][]*ast.File
	fset    *token.FileSet
	info    *types.Info
	std     types.Importer
	checked map[string]*types.Package
}

func (imp *repoImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := imp.checked[p]; ok {
		return pkg, nil
	}
	fs, ok := imp.files[p]
	if !ok {
		return imp.std.Import(p)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p, imp.fset, fs, imp.info)
	if err != nil {
		return nil, err
	}
	imp.checked[p] = pkg
	return pkg, nil
}
