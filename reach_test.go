package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keep names the exported funcs and methods under internal/ that no
// non-test file references by name, with the reason each stays.
var keep = map[string]string{
	// Interface methods: called through an interface the standard
	// library declares.
	"Accept":        "net.Listener, on ChaosListener",
	"MarshalJSON":   "json.Marshaler, on service.Duration",
	"Temporary":     "net.Error, on ChaosError",
	"UnmarshalJSON": "json.Unmarshaler, on service.Duration",
	"Unwrap":        "errors.Is through Unwrap, on conflictError",

	// Task API: what a task body may call.
	"Holds":   "task API: Ctx.Holds",
	"LogUndo": "task API: Ctx.LogUndo",

	// Test oracles: independent checks of what the program computes.
	"CheckDelaunay":           "test oracle: the Delaunay property of a refined mesh",
	"CheckFlow":               "test oracle: capacity and conservation of a max flow",
	"CheckInvariants":         "test oracle: adjacency symmetry and indices of a Graph",
	"ComputeStats":            "test oracle: triangle quality of a refined mesh",
	"ExactExpectedAborts":     "test oracle: exact k̄(m) by enumeration, against the Monte Carlo estimate",
	"GreedyMISSize":           "test oracle: greedy MIS on the mutable Graph, against the CSR kernel",
	"IsMaximalIndependentSet": "test oracle: maximality and independence of a selected set",
	"IsProperColoring":        "test oracle: a coloring leaves no edge monochrome",
	"MaxDegreeCSR":            "test oracle: first-fit uses at most Δ+1 colors",
	"ParallelismEstimate":     "test oracle: expected clause-update parallelism of a formula",
	"PoisonPlanCount":         "test oracle: exact poisoned-task count of a fault plan",
	"Refine":                  "test oracle: sequential refinement the speculative mesh is held to",

	// The paper's theory (§3), checked against simulation by the tests.
	"BLowerConflictBound":    "§3: degree-sequence bound on the conflict ratio",
	"Binomial":               "§3: binomial coefficients of the finite differences",
	"EMCliqueUnion":          "§3: EM_m of the worst-case graph K^n_d",
	"FiniteDiff":             "§3: Eq. 2 finite differences",
	"NoEarlierNeighborCount": "§3: IS_m of the proof of Thm. 2",

	// Test seams and probes: how tests inject faults or look inside.
	"Clear":           "test seam: FaultFS.Clear heals the injected disk fault",
	"Delays":          "test probe: injected delays, Injector and ChaosTransport",
	"Dropped":         "test probe: connections ChaosListener dropped",
	"Errors":          "test probe: injected errors",
	"Fail":            "test seam: FaultFS.Fail arms a disk fault",
	"FormatChaosPlan": "test seam: inverse of ParseChaosPlan, for FuzzChaosPlan",
	"IndexOf":         "test probe: dense index of a node in a CSR snapshot",
	"Injected":        "test probe: faults FaultFS and RoundTripper injected",
	"Int63":           "test seam: the rand.Source adapter of testing/quick",
	"MISSize":         "test probe: the CSR greedy-MIS kernel on a given order",
	"NewFaultFS":      "test seam: a disk that fails on demand",
	"Owner":           "test probe: which attempt holds an item",
	"Panics":          "test probe: injected panics",
	"Passed":          "test probe: requests RoundTripper let through",
	"PoisonPlanned":   "test probe: poison-planned tasks wrapped",
	"SampleOrder":     "test probe: the CSR sampling step, checked for uniformity",

	// Fixtures and diagnostics of the tests.
	"Complete":        "test fixture: the complete graph K_n",
	"Cycle":           "test fixture: the cycle C_n",
	"Empty":           "test fixture: n isolated nodes",
	"Grid2D":          "test fixture: the grid graph",
	"MSeries":         "test diagnostic: m trajectory in control test failures",
	"NewRouted":       "test fixture: a general routed des network",
	"RemoveEdge":      "test fixture: edge removal the differential test checks",
	"SortedNeighbors": "test fixture: deterministic neighbor lists for goldens",
	"Star":            "test fixture: the star graph",
	"TailMean":        "test diagnostic: tail mean of m in control test failures",
}

// TestEveryExportedFuncHasACaller parses every non-test .go file in the
// repository (bench/, cmd/ and examples/ included, testdata/ excluded)
// and fails for any exported func or method declared under internal/
// whose name appears as an identifier nowhere outside its own
// declaration. The check goes by name: a dead method that shares its
// name with a live one passes, but a live one is never flagged. A name
// that must stay without a caller goes into keep with its reason.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name, where string
		pos, end    token.Pos // the declaration's extent, body included
	}
	var decls []decl
	var files []*ast.File
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
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, dd := range f.Decls {
			if fn, ok := dd.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String(), fn.Pos(), fn.End()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses[name] lists the positions of every identifier spelled name
	// that is not itself the name of a func or method declaration.
	uses := map[string][]token.Pos{}
	for _, f := range files {
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			if fn, ok := dd.(*ast.FuncDecl); ok {
				declNames[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	// A name is live when an identifier spelled like it lies outside
	// every declaration of that name: a recursive call is not a caller.
	inOwnDecl := func(name string, p token.Pos) bool {
		for _, d := range decls {
			if d.name == name && d.pos <= p && p < d.end {
				return true
			}
		}
		return false
	}
	dead := map[string]string{}
	for _, d := range decls {
		live := false
		for _, p := range uses[d.name] {
			if !inOwnDecl(d.name, p) {
				live = true
				break
			}
		}
		if !live {
			dead[d.name] = d.where
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
	for name := range keep {
		if _, ok := dead[name]; !ok {
			t.Errorf("keep lists %s, which has a caller now (or is gone): drop it from keep", name)
		}
	}
}
