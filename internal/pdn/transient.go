package pdn

import (
	"context"
	"fmt"
	"math"

	"bright/internal/num"
)

// TransientProblem extends the DC grid with on-die decoupling
// capacitance, a load step and a VRM response lag: the caches wake from
// idle to full current at t=0, but the switched-capacitor VRMs keep
// delivering their pre-step current until their control loop reacts
// (VRMResponseTime). During that window only the decap supplies the
// step, and the grid droops below its final DC value — the transient
// half of the power-integrity story of Figs. 5-6.
type TransientProblem struct {
	// Base is the DC problem (grid, sites, full-load map).
	Base *Problem
	// DecapPerArea is the decoupling capacitance per die area (F/m2);
	// ~1e-2..5e-2 F/m2 (10-50 nF/mm2) is typical on-die decap.
	DecapPerArea float64
	// StepFraction: the load steps from StepFraction*I to I at t=0.
	StepFraction float64
	// VRMResponseTime is the regulation lag (s); switched-capacitor
	// converters react within a few switching periods, ~1 us.
	VRMResponseTime float64
	// Dt and Steps control the backward-Euler integration; the run
	// must cover the response time (Dt*Steps > VRMResponseTime).
	Dt    float64
	Steps int
}

// Validate reports whether the problem is well posed.
func (p *TransientProblem) Validate() error {
	if p.Base == nil {
		return fmt.Errorf("pdn: nil base problem")
	}
	if err := p.Base.Validate(); err != nil {
		return err
	}
	if p.DecapPerArea <= 0 {
		return fmt.Errorf("pdn: nonpositive decap %g", p.DecapPerArea)
	}
	if p.StepFraction < 0 || p.StepFraction >= 1 {
		return fmt.Errorf("pdn: step fraction %g out of [0,1)", p.StepFraction)
	}
	if p.VRMResponseTime <= 0 {
		return fmt.Errorf("pdn: nonpositive VRM response time")
	}
	if p.Dt <= 0 || p.Steps <= 0 {
		return fmt.Errorf("pdn: invalid stepping dt=%g steps=%d", p.Dt, p.Steps)
	}
	if p.Dt*float64(p.Steps) <= p.VRMResponseTime {
		return fmt.Errorf("pdn: run (%g s) must cover the VRM response time (%g s)",
			p.Dt*float64(p.Steps), p.VRMResponseTime)
	}
	return nil
}

// TransientResult is the droop trajectory.
type TransientResult struct {
	// Times (s) and MinV (V): the grid's minimum voltage per step.
	Times, MinV []float64
	// WorstV is the deepest droop over the run.
	WorstV float64
	// SettledV is the final (DC full-load) minimum voltage.
	SettledV float64
	// DroopMV = (SettledV - WorstV)*1000: the transient penalty below
	// the DC operating point.
	DroopMV float64
}

// gridStamp is the shared stamping of one PDN grid: the mesh
// conductance matrix (no sites, no capacitance), the full-load current
// per node, the decap per node and the site nodes/conductances. Both
// the one-shot wake-up study and the streaming TransientSession build
// their phase matrices from it.
type gridStamp struct {
	n          int
	gridCSR    *num.CSR
	loadFull   []float64 // A per node at full load
	capPerNode []float64 // F per node (0 when decapPerArea is 0)
	siteNodes  []int
	siteG      []float64
}

// stamp assembles the grid conductances, per-node loads and decap for
// the problem's mesh. The load grid must match the solve grid.
func stamp(base *Problem, decapPerArea float64) (*gridStamp, error) {
	g := base.grid()
	if base.LoadDensity.Grid.NX() != g.NX() || base.LoadDensity.Grid.NY() != g.NY() {
		return nil, fmt.Errorf("pdn: load grid mismatch")
	}
	n := g.NumCells()
	gridCOO := num.NewCOO(n, n)
	st := &gridStamp{
		n:          n,
		loadFull:   make([]float64, n),
		capPerNode: make([]float64, n),
	}
	for j := 0; j < g.NY(); j++ {
		for i := 0; i < g.NX(); i++ {
			row := g.Index(i, j)
			if i < g.NX()-1 {
				cond := (g.Y.Widths[j] / g.X.CenterSpacing(i)) / base.SheetResistance
				col := g.Index(i+1, j)
				gridCOO.Add(row, row, cond)
				gridCOO.Add(col, col, cond)
				gridCOO.Add(row, col, -cond)
				gridCOO.Add(col, row, -cond)
			}
			if j < g.NY()-1 {
				cond := (g.X.Widths[i] / g.Y.CenterSpacing(j)) / base.SheetResistance
				col := g.Index(i, j+1)
				gridCOO.Add(row, row, cond)
				gridCOO.Add(col, col, cond)
				gridCOO.Add(row, col, -cond)
				gridCOO.Add(col, row, -cond)
			}
			area := g.CellArea(i, j)
			st.loadFull[row] = base.LoadDensity.At(i, j) * area
			st.capPerNode[row] = decapPerArea * area
		}
	}
	st.gridCSR = gridCOO.ToCSR()
	st.siteNodes = make([]int, len(base.Sites))
	st.siteG = make([]float64, len(base.Sites))
	for k, s := range base.Sites {
		st.siteNodes[k] = g.Index(g.X.FindCell(s.X), g.Y.FindCell(s.Y))
		st.siteG[k] = 1 / s.Resistance
	}
	return st, nil
}

// stampInto copies the grid conductances into a fresh COO for one phase
// matrix.
func (st *gridStamp) stampInto(dst *num.COO) {
	src := st.gridCSR
	for i := 0; i < src.Rows; i++ {
		for kk := src.RowPtr[i]; kk < src.RowPtr[i+1]; kk++ {
			dst.Add(i, src.ColIdx[kk], src.Val[kk])
		}
	}
}

// SolveTransient integrates the wake-up step with backward Euler.
func SolveTransient(p *TransientProblem) (*TransientResult, error) {
	return SolveTransientContext(context.Background(), p)
}

// SolveTransientContext is SolveTransient with cancellation, checked at
// every backward-Euler step boundary.
func SolveTransientContext(ctx context.Context, p *TransientProblem) (*TransientResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base := p.Base
	g := base.grid()
	st, err := stamp(base, p.DecapPerArea)
	if err != nil {
		return nil, err
	}
	n := st.n
	// DC solve helper with voltage-source sites at the given load scale.
	dcCOO := num.NewCOO(n, n)
	st.stampInto(dcCOO)
	srcB := make([]float64, n)
	for k, node := range st.siteNodes {
		dcCOO.Add(node, node, st.siteG[k])
		srcB[node] += st.siteG[k] * base.Supply
	}
	aDC := dcCOO.ToCSR()
	// One cached solver per matrix for the whole run: the preconditioner
	// (multigrid at the default resolution) and Krylov
	// workspace are built once and shared by every solve against that
	// matrix (all stamps here are symmetric by construction).
	shape := num.GridShape{NX: g.NX(), NY: g.NY()}
	dcSolver := num.NewSparseSolverSymmetric(aDC, true, num.IterOptions{Tol: 1e-11, Shape: &shape})
	solveDC := func(scale float64) ([]float64, error) {
		b := make([]float64, n)
		for k := range b {
			b[k] = srcB[k] - scale*st.loadFull[k]
		}
		x := make([]float64, n)
		num.Fill(x, base.Supply)
		if _, err := dcSolver.Solve(b, x); err != nil {
			return nil, err
		}
		return x, nil
	}
	x, err := solveDC(p.StepFraction)
	if err != nil {
		return nil, fmt.Errorf("pdn: idle DC solve: %w", err)
	}
	settled, err := solveDC(1)
	if err != nil {
		return nil, fmt.Errorf("pdn: settled DC solve: %w", err)
	}
	// Frozen VRM currents during the lag window.
	iFrozen := make([]float64, n)
	for k, node := range st.siteNodes {
		iFrozen[node] += st.siteG[k] * (base.Supply - x[node])
	}
	// Phase matrices with capacitance.
	lagCOO := num.NewCOO(n, n)
	st.stampInto(lagCOO)
	regCOO := num.NewCOO(n, n)
	st.stampInto(regCOO)
	for k, node := range st.siteNodes {
		regCOO.Add(node, node, st.siteG[k])
	}
	for row, c := range st.capPerNode {
		lagCOO.Add(row, row, c/p.Dt)
		regCOO.Add(row, row, c/p.Dt)
	}
	lagSolver := num.NewSparseSolverSymmetric(lagCOO.ToCSR(), true, num.IterOptions{Tol: 1e-10, Shape: &shape})
	regSolver := num.NewSparseSolverSymmetric(regCOO.ToCSR(), true, num.IterOptions{Tol: 1e-10, Shape: &shape})

	res := &TransientResult{WorstV: math.Inf(1)}
	rhs := make([]float64, n)
	for step := 1; step <= p.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := float64(step) * p.Dt
		inLag := t <= p.VRMResponseTime
		for k := range rhs {
			rhs[k] = -st.loadFull[k] + st.capPerNode[k]/p.Dt*x[k]
			if inLag {
				rhs[k] += iFrozen[k]
			} else {
				rhs[k] += srcB[k]
			}
		}
		solver := regSolver
		if inLag {
			solver = lagSolver
		}
		if _, err := solver.Solve(rhs, x); err != nil {
			return nil, fmt.Errorf("pdn: transient step %d: %w", step, err)
		}
		minV := num.MinSlice(x)
		res.Times = append(res.Times, t)
		res.MinV = append(res.MinV, minV)
		if minV < res.WorstV {
			res.WorstV = minV
		}
	}
	res.SettledV = num.MinSlice(settled)
	res.DroopMV = 1000 * (res.SettledV - res.WorstV)
	if res.DroopMV < 0 {
		res.DroopMV = 0
	}
	return res, nil
}

// TransientSession is the step-at-a-time form of the PDN transient: the
// regulated backward-Euler matrix (grid + site conductances + C/dt) is
// assembled and preconditioned once, and each Step advances the node
// voltage state by one dt under a caller-chosen load scale. Where
// SolveTransient runs one canned wake-up study, a TransientSession is
// co-stepped frame by frame with the thermal transient by the streaming
// digital-twin sessions (internal/stream): a workload-driven load step
// shows up as a voltage droop that the decap rides out over the next
// few steps, and the state vector is exposed for checkpoint/restore.
// A TransientSession is not safe for concurrent use.
type TransientSession struct {
	base   *Problem
	st     *gridStamp
	dt     float64
	solver *num.SparseSolver
	// lagSolver is the frozen-VRM phase matrix (no site conductances):
	// during a regulation lag only the decap supplies a load change.
	lagSolver *num.SparseSolver
	x         []float64
	rhs       []float64
	// cacheMask marks nodes inside cache units, the region whose
	// minimum voltage the paper's power-integrity experiment tracks.
	cacheMask []bool
	steps     int
}

// NewTransientSession assembles the regulated-phase backward-Euler
// system (the VRMs track the supply; the lag-phase study stays with
// SolveTransient) at the given decap density and step size. The voltage
// state is initialized to the flat supply level; step the session a few
// times at the starting load to settle it before trusting droops.
func NewTransientSession(base *Problem, decapPerArea, dt float64) (*TransientSession, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if decapPerArea <= 0 {
		return nil, fmt.Errorf("pdn: nonpositive decap %g", decapPerArea)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: nonpositive transient step dt=%g", dt)
	}
	st, err := stamp(base, decapPerArea)
	if err != nil {
		return nil, err
	}
	g := base.grid()
	co := num.NewCOO(st.n, st.n)
	st.stampInto(co)
	for k, node := range st.siteNodes {
		co.Add(node, node, st.siteG[k])
	}
	lagCO := num.NewCOO(st.n, st.n)
	st.stampInto(lagCO)
	for row, c := range st.capPerNode {
		co.Add(row, row, c/dt)
		lagCO.Add(row, row, c/dt)
	}
	shape := num.GridShape{NX: g.NX(), NY: g.NY()}
	ts := &TransientSession{
		base:      base,
		st:        st,
		dt:        dt,
		solver:    num.NewSparseSolverSymmetric(co.ToCSR(), true, num.IterOptions{Tol: 1e-10, Shape: &shape}),
		lagSolver: num.NewSparseSolverSymmetric(lagCO.ToCSR(), true, num.IterOptions{Tol: 1e-10, Shape: &shape}),
		x:         make([]float64, st.n),
		rhs:       make([]float64, st.n),
		cacheMask: cacheMask(base, g),
	}
	num.Fill(ts.x, base.Supply)
	return ts, nil
}

// Step advances the grid by one backward-Euler step with the load map
// scaled by loadScale (1 = the base problem's full-load map), returning
// the minimum node voltage over the whole die and over the cache
// region. The supply level is the base problem's.
func (ts *TransientSession) Step(loadScale float64) (minV, minVCache float64, err error) {
	return ts.step(loadScale, false)
}

// StepFrozen advances one step with the VRM injections frozen at the
// currents they deliver into the present state: the regulation-lag
// phase, where a load change is carried by the decap alone until the
// converters react. Streaming sessions take one frozen step at each
// load change to expose the droop below the regulated trajectory.
func (ts *TransientSession) StepFrozen(loadScale float64) (minV, minVCache float64, err error) {
	return ts.step(loadScale, true)
}

func (ts *TransientSession) step(loadScale float64, frozen bool) (minV, minVCache float64, err error) {
	if loadScale < 0 {
		return 0, 0, fmt.Errorf("pdn: negative load scale %g", loadScale)
	}
	supply := ts.base.Supply
	for k := range ts.rhs {
		ts.rhs[k] = -loadScale*ts.st.loadFull[k] + ts.st.capPerNode[k]/ts.dt*ts.x[k]
	}
	solver := ts.solver
	if frozen {
		solver = ts.lagSolver
		for k, node := range ts.st.siteNodes {
			ts.rhs[node] += ts.st.siteG[k] * (supply - ts.x[node])
		}
	} else {
		for k, node := range ts.st.siteNodes {
			ts.rhs[node] += ts.st.siteG[k] * supply
		}
	}
	if _, err := solver.Solve(ts.rhs, ts.x); err != nil {
		return 0, 0, fmt.Errorf("pdn: transient step %d: %w", ts.steps+1, err)
	}
	ts.steps++
	minV = math.Inf(1)
	minVCache = math.Inf(1)
	for k, v := range ts.x {
		if v < minV {
			minV = v
		}
		if ts.cacheMask[k] && v < minVCache {
			minVCache = v
		}
	}
	return minV, minVCache, nil
}

// State returns a copy of the node voltage state (V per node) for
// checkpointing.
func (ts *TransientSession) State() []float64 {
	out := make([]float64, len(ts.x))
	copy(out, ts.x)
	return out
}

// Restore replaces the voltage state, resuming a checkpointed
// trajectory. The state length must match the session's grid.
func (ts *TransientSession) Restore(state []float64) error {
	if len(state) != len(ts.x) {
		return fmt.Errorf("pdn: restore state has %d nodes, session has %d", len(state), len(ts.x))
	}
	copy(ts.x, state)
	return nil
}
