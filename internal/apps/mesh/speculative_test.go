package mesh

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/rng"
	"repro/internal/speculation"
)

func buildTestMesh(seed uint64, pts int) *Mesh {
	r := rng.New(seed)
	m := NewSquare(0, 1)
	for _, p := range randomPoints(r, pts, 0, 1) {
		m.Insert(p)
	}
	return m
}

func TestSpeculativeRefinerFixedM(t *testing.T) {
	m := buildTestMesh(1, 25)
	q := Quality{MaxArea: 0.003}
	r := rng.New(2)
	ref := NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
	rounds := 0
	for ref.Executor().Pending() > 0 {
		ref.Executor().Round(8)
		rounds++
		if rounds > 100000 {
			t.Fatal("refiner did not drain")
		}
	}
	if ref.Inserted == 0 {
		t.Fatal("nothing inserted")
	}
	if bad := m.BadTriangles(q); len(bad) != 0 {
		t.Fatalf("%d bad triangles remain", len(bad))
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalArea()-1) > 1e-9 {
		t.Fatalf("area = %v", m.TotalArea())
	}
}

// The speculative refiner must produce a mesh equivalent in quality to
// the sequential refiner (not identical — insertion order differs — but
// fully refined and structurally sound).
func TestSpeculativeMatchesSequentialQuality(t *testing.T) {
	q := Quality{MaxArea: 0.005}

	seqMesh := buildTestMesh(3, 20)
	seqStats := seqMesh.Refine(q, 0)

	parMesh := buildTestMesh(3, 20)
	r := rng.New(4)
	ref := NewSpeculativeRefiner(parMesh, q, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	speculation.RunAdaptive(ref.Executor(), ctrl, 1000000)

	if len(parMesh.BadTriangles(q)) != 0 || len(seqMesh.BadTriangles(q)) != 0 {
		t.Fatal("refinement incomplete")
	}
	// Insertion counts should be in the same ballpark (within 2×).
	if ref.Inserted > 2*seqStats.Inserted+10 || seqStats.Inserted > 2*ref.Inserted+10 {
		t.Errorf("insertions diverge: sequential %d vs speculative %d",
			seqStats.Inserted, ref.Inserted)
	}
	if err := parMesh.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeRefinerAdaptive(t *testing.T) {
	m := buildTestMesh(5, 30)
	q := Quality{MaxArea: 0.001}
	r := rng.New(6)
	ref := NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
	ctrl := control.NewHybrid(control.DefaultHybridConfig(0.25))
	res := speculation.RunAdaptive(ref.Executor(), ctrl, 1000000)
	if ref.Executor().Pending() != 0 {
		t.Fatal("did not drain")
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds")
	}
	// Conflicts must actually occur at some point (cavities overlap).
	if ref.Executor().TotalAborted() == 0 {
		t.Error("no conflicts ever detected — cavity locking suspicious")
	}
	if len(m.BadTriangles(q)) != 0 {
		t.Fatal("bad triangles remain")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeRefinerNoBadTriangles(t *testing.T) {
	m := NewSquare(0, 1)
	ref := NewSpeculativeRefiner(m, Quality{MaxArea: 10}, nil)
	if ref.Executor().Pending() != 0 {
		t.Fatal("phantom work")
	}
	res := speculation.RunAdaptive(ref.Executor(), control.Fixed{Procs: 4}, 10)
	if res.Rounds != 0 {
		t.Fatal("rounds on empty work-set")
	}
}

// The refiner's read phase takes no lock: tasks of a round read the mesh
// concurrently while commits wait for the barrier. Drained on four
// participants at the workload's size-2000 build (under -race in `make
// race`), the mesh must come out consistent, Delaunay and fully refined,
// and every committed task must be an insertion or a stale no-op.
func TestSpeculativeRefinerLockFree(t *testing.T) {
	const size = 2000
	ctrls := []struct {
		name string
		ctrl func() control.Controller
	}{
		{"m16", func() control.Controller { return control.Fixed{Procs: 16} }},
		{"m256", func() control.Controller { return control.Fixed{Procs: 256} }},
		{"hybrid", func() control.Controller { return control.NewHybrid(control.DefaultHybridConfig(0.25)) }},
	}
	for _, c := range ctrls {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				r := rng.New(seed)
				m := NewSquare(0, 1)
				for i := 0; i < size/10; i++ {
					m.Insert(Point{X: 0.01 + 0.98*r.Float64(), Y: 0.01 + 0.98*r.Float64()})
				}
				q := Quality{MaxArea: 1.0 / size}
				ref := NewSpeculativeRefiner(m, q, func(n int) int { return r.Intn(n) })
				exec := ref.Executor()
				exec.MaxParallel = 4
				speculation.RunAdaptive(exec, c.ctrl(), 0)
				if exec.Pending() != 0 {
					t.Fatalf("%d tasks pending", exec.Pending())
				}
				if bad := m.BadTriangles(q); len(bad) != 0 {
					t.Fatalf("%d bad triangles remain", len(bad))
				}
				if err := m.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
				if err := m.CheckDelaunay(); err != nil {
					t.Fatal(err)
				}
				if got, want := int64(ref.Inserted+ref.StaleOK()), exec.TotalCommitted(); got != want {
					t.Fatalf("inserted %d + stale %d = %d, executor committed %d",
						ref.Inserted, ref.StaleOK(), got, want)
				}
			})
		}
	}
}
