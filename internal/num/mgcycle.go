package num

// The V-cycle. Everything here runs once per preconditioner
// application, so nothing in this file may allocate: every buffer was
// sized by NewSemiGMG in mg.go (`make escape-check` fails on any heap
// escape in this file).

// Apply runs one V-cycle on A z = r from a zero initial guess. It is
// allocation-free: every buffer was sized at setup.
func (m *Multigrid) Apply(r, z []float64) {
	m.vcycle(0, r, z)
	mgCycles.Add(1)
}

// vcycle is one level of the V-cycle on A x = b from x = 0: an
// ILU(0) pre-smooth, the aggregated coarse correction and an ILU(0)
// post-smooth. The finest level runs on Apply's own r and z, so only
// the coarser levels own x and b.
//
// On a nonsymmetric operator the finest level skips its pre-smooth.
// That saves an ILU(0) sweep and a residual product on the largest
// operator per cycle; on the Power7 networks it costs about one
// BiCGSTAB iteration per unit solve and makes each solve faster by a
// sixth to a third (DESIGN §7.5). On a symmetric operator the finest
// level pre-smooths too, because with the same smoother before and
// after every coarse correction and restriction = prolongationᵀ the
// cycle is a symmetric operator, as CG requires.
func (m *Multigrid) vcycle(l int, b, x []float64) {
	if l == len(m.levels)-1 {
		//lint:ignore errignore SolveInto only errors on shape mismatch, pinned at setup
		_ = m.coarse.SolveInto(x, b)
		return
	}
	lev, next := m.levels[l], m.levels[l+1]
	if l == 0 && !m.symmetric {
		// From x = 0 the residual is b itself.
		restrict(lev.agg, b, next.b)
		m.vcycle(l+1, next.b, next.x)
		for i, c := range lev.agg {
			x[i] = next.x[c]
		}
	} else {
		// From x = 0 the pre-smooth x += M⁻¹(b - A·0) is x = M⁻¹b,
		// so it needs no residual product.
		lev.ilu.Apply(b, x)
		lev.residual(b, x)
		restrict(lev.agg, lev.res, next.b)
		m.vcycle(l+1, next.b, next.x)
		for i, c := range lev.agg {
			x[i] += next.x[c]
		}
	}
	lev.residual(b, x)
	lev.ilu.Apply(lev.res, lev.res)
	Axpy(1, lev.res, x)
}

// restrict sums the fine vector r over each aggregate into coarse.
func restrict(agg []int32, r, coarse []float64) {
	clear(coarse)
	for i, c := range agg {
		coarse[c] += r[i]
	}
}

// residual writes b - A x into the level's res buffer.
func (lev *mgLevel) residual(b, x []float64) {
	lev.a.MulVec(x, lev.res)
	for i, v := range lev.res {
		lev.res[i] = b[i] - v
	}
}
