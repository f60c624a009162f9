package thermal

import (
	"math"
	"reflect"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/num"
	"bright/internal/units"
)

// iluRowLoop is the reference for num.ILU0.Apply: the plain row loop
// over the factor, every neighbour read back from z. The factor's
// values are private to num, so they are read by reflection; the
// diagonal positions come from a, whose index arrays the factor shares.
func iluRowLoop(t *testing.T, f *num.ILU0, a *num.CSR, r, z []float64) {
	t.Helper()
	fv := reflect.ValueOf(f).Elem().FieldByName("val")
	if !fv.IsValid() || fv.Len() != a.NNZ() {
		t.Fatal("num.ILU0 no longer holds its factored values in val")
	}
	val := make([]float64, fv.Len())
	for p := range val {
		val[p] = fv.Index(p).Float()
	}
	diag := make([]int, a.Rows)
	for i := range diag {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] == i {
				diag[i] = p
			}
		}
	}
	for i := 0; i < a.Rows; i++ {
		s := r[i]
		for p := a.RowPtr[i]; p < diag[i]; p++ {
			s -= val[p] * z[a.ColIdx[p]]
		}
		z[i] = s
	}
	for i := a.Rows - 1; i >= 0; i-- {
		s := z[i]
		for p := diag[i] + 1; p < a.RowPtr[i+1]; p++ {
			s -= val[p] * z[a.ColIdx[p]]
		}
		z[i] = s * val[diag[i]]
	}
}

// TestILU0ApplyThermalOperators: on the thermal networks the solver
// factors, ILU0.Apply with its register-carried neighbours equals the
// row loop bitwise, also with r and z aliased. Every operator holds both
// kinds of row: ones whose last lower entry is column i−1 (the carried
// path) and ones where it is not (the first cell of each x line, the
// fluid rows), which the test counts to prove both paths ran.
func TestILU0ApplyThermalOperators(t *testing.T) {
	steady := func(p *Problem) func(t *testing.T) *num.CSR {
		return func(t *testing.T) *num.CSR {
			s, err := assemble(p, false)
			if err != nil {
				t.Fatal(err)
			}
			return s.toCSR()
		}
	}
	transient := func(t *testing.T) *num.CSR {
		p := Power7Problem(676, units.CtoK(27), 0)
		p.NX, p.NY = 44, 32
		p.Power = floorplan.Power7().Rasterize(p.Grid(), floorplan.Power7FullLoad())
		ts, err := NewTransientSession(p, 300, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return ts.solver.Matrix()
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *num.CSR
	}{
		{"steady 48 ml/min", steady(Power7Problem(48, units.CtoK(27), 0))},
		{"steady 676 ml/min", steady(Power7Problem(676, units.CtoK(27), 0))},
		{"transient 44x32", transient},
		{"counterflow", steady(counterflowProblem())},
		{"clogged column", steady(cloggedProblem())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build(t)
			f, err := num.NewILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			carried, plain := 0, 0
			for i := 0; i < a.Rows; i++ {
				lower := a.RowPtr[i]
				for lower < a.RowPtr[i+1] && a.ColIdx[lower] < i {
					lower++
				}
				if lower > a.RowPtr[i] && a.ColIdx[lower-1] == i-1 {
					carried++
				} else {
					plain++
				}
			}
			if carried == 0 || plain == 0 {
				t.Fatalf("%d rows carry the neighbour, %d do not: want both kinds", carried, plain)
			}
			r := make([]float64, a.Rows)
			for i := range r {
				r[i] = math.Sin(0.37*float64(i)) + 0.5
			}
			want := make([]float64, a.Rows)
			iluRowLoop(t, f, a, r, want)
			got := make([]float64, a.Rows)
			f.Apply(r, got)
			alias := append([]float64(nil), r...)
			f.Apply(alias, alias)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
					t.Fatalf("row %d: Apply %v (aliased %v), row loop %v", i, got[i], alias[i], want[i])
				}
			}
		})
	}
}
