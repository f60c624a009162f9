package num

// The V-cycles of both hierarchies. Everything here runs once per
// preconditioner application, so nothing in this file may allocate:
// every buffer was sized by the constructors in mg.go (`make
// escape-check` fails on any heap escape in this file).

// Apply runs one V-cycle on A z = r from a zero initial guess. It is
// allocation-free: every buffer was sized at setup.
func (m *Multigrid) Apply(r, z []float64) {
	if m.levels[0].ilu != nil {
		m.semiCycle(0, r, z)
		mgCycles.Add(1)
		return
	}
	f := m.levels[0]
	copy(f.b, r)
	Fill(f.x, 0)
	m.vcycle(0)
	copy(z, f.x)
	mgCycles.Add(1)
}

func (m *Multigrid) vcycle(l int) {
	lev := m.levels[l]
	if l == len(m.levels)-1 {
		if m.coarse != nil {
			// LU never fails here: shapes were fixed at setup.
			//lint:ignore errignore SolveInto only errors on shape mismatch, pinned at setup
			_ = m.coarse.SolveInto(lev.x, lev.b)
		} else {
			mgCoarseHeavySmooths.Inc()
			smooth(lev, mgCoarseSweeps)
		}
		return
	}
	smooth(lev, 1)
	lev.a.MulVec(lev.x, lev.res)
	for i := range lev.res {
		lev.res[i] = lev.b[i] - lev.res[i]
	}
	next := m.levels[l+1]
	lev.r.MulVec(lev.res, next.b)
	Fill(next.x, 0)
	m.vcycle(l + 1)
	lev.p.MulVec(next.x, lev.res)
	Axpy(1, lev.res, lev.x)
	smooth(lev, 1)
}

// smooth runs damped-Jacobi sweeps x += omega * D^{-1} (b - A x).
func smooth(lev *mgLevel, sweeps int) {
	for s := 0; s < sweeps; s++ {
		lev.a.MulVec(lev.x, lev.res)
		for i, d := range lev.invDiag {
			lev.x[i] += mgOmega * d * (lev.b[i] - lev.res[i])
		}
	}
}

// semiCycle is one level of the semicoarsened V-cycle on A x = b from
// x = 0: the aggregated coarse correction followed by an ILU(0)
// post-smooth, with an ILU(0) pre-smooth first on every level but the
// finest. The finest level runs on Apply's own r and z, so only the
// coarser levels own x and b.
//
// Skipping the finest pre-smooth saves an ILU(0) sweep and a residual
// product on the largest operator per cycle. On the Power7 networks it
// costs about one BiCGSTAB iteration per unit solve and makes each
// solve faster by a sixth to a third (DESIGN §7.5).
func (m *Multigrid) semiCycle(l int, b, x []float64) {
	if l == len(m.levels)-1 {
		//lint:ignore errignore SolveInto only errors on shape mismatch, pinned at setup
		_ = m.coarse.SolveInto(x, b)
		return
	}
	lev, next := m.levels[l], m.levels[l+1]
	if l == 0 {
		// From x = 0 the residual is b itself.
		restrict(lev.agg, b, next.b)
		m.semiCycle(l+1, next.b, next.x)
		for i, c := range lev.agg {
			x[i] = next.x[c]
		}
	} else {
		// From x = 0 the pre-smooth x += M⁻¹(b - A·0) is x = M⁻¹b,
		// so it needs no residual product.
		lev.ilu.Apply(b, x)
		lev.residual(b, x)
		restrict(lev.agg, lev.res, next.b)
		m.semiCycle(l+1, next.b, next.x)
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
