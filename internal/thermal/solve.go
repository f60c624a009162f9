package thermal

import (
	"context"
	"fmt"

	"bright/internal/mesh"
	"bright/internal/num"
)

// Problem is one thermal solve: a stack over a die with a power map.
// The coolant flows along the +Y axis (the paper's channels run along
// the 21.34 mm die dimension; Table II's 22 mm channel length).
type Problem struct {
	// DieWidth (X, across channels) and DieHeight (Y, along flow), m.
	DieWidth, DieHeight float64
	Stack               *Stack
	// Power is the heat-source density field (W/m2) on the solve grid
	// (rasterize the floorplan power map onto Grid()). In multi-tier
	// stacks every heat-source layer receives this map.
	Power *mesh.Field2D
	// ExtraFluidHeat is additional heat (W) deposited directly into the
	// coolant, distributed uniformly over all channels of all cavities
	// — the electrochemical loss heat of the flow cells in
	// co-simulation.
	ExtraFluidHeat float64
	// NX, NY are the lateral grid resolution (defaults 88 x 64: one
	// cell per channel pitch across, ~0.33 mm along flow).
	NX, NY int
}

// Grid returns the lateral solve grid.
func (p *Problem) Grid() *mesh.Grid2D {
	nx, ny := p.NX, p.NY
	if nx == 0 {
		nx = 88
	}
	if ny == 0 {
		ny = 64
	}
	return mesh.NewUniformGrid2D(p.DieWidth, p.DieHeight, nx, ny)
}

// Validate reports whether the problem is well posed.
func (p *Problem) Validate() error {
	if p.DieWidth <= 0 || p.DieHeight <= 0 {
		return fmt.Errorf("thermal: nonpositive die %gx%g", p.DieWidth, p.DieHeight)
	}
	if p.Stack == nil {
		return fmt.Errorf("thermal: nil stack")
	}
	if err := p.Stack.Validate(); err != nil {
		return err
	}
	if p.Power == nil {
		return fmt.Errorf("thermal: nil power field")
	}
	if p.ExtraFluidHeat < 0 {
		return fmt.Errorf("thermal: negative extra fluid heat %g", p.ExtraFluidHeat)
	}
	return nil
}

// system is the assembled thermal network before matrix conversion.
type system struct {
	grid       *mesh.Grid2D
	co         *num.COO
	b          []float64 // baseline RHS (inlet advection), no chip power or fluid heat; transient only
	rhs        []float64 // reused full-RHS buffer of rhsWithPower
	cap        []float64 // heat capacity per node (J/K); transient only
	n          int
	nx, ny, nz int
	activeKs   []int // heat-source layer indices
	cavKs      []int // cavity layer indices
	inletT     float64
	totalPower float64 // of the most recent rhsWithPower call
	// reversed reports whether column i flows in -Y (counterflow).
	reversed func(i int) bool
}

// rhsWithPower returns the right-hand side for the given power field:
// base (s.b, the inlet advection baseline, for the temperature itself;
// nil for the displacement from the uniform inlet field, which the
// baseline alone holds at zero) plus the chip power deposited into
// every heat-source layer and extraFluidHeat (W) spread uniformly over
// all fluid nodes. It also records the integrated power in
// s.totalPower. The returned slice is an internal buffer, valid until
// the next rhsWithPower call — copy it to keep it.
func (s *system) rhsWithPower(base []float64, power *mesh.Field2D, extraFluidHeat float64) ([]float64, error) {
	if err := s.checkPowerGrid(power); err != nil {
		return nil, err
	}
	if s.rhs == nil {
		s.rhs = make([]float64, s.n)
	}
	b := s.rhs
	clear(b)
	copy(b, base)
	s.addFluidHeat(b, extraFluidHeat)
	s.totalPower = s.addPower(b, power)
	return b, nil
}

func (s *system) checkPowerGrid(power *mesh.Field2D) error {
	if power.Grid.NX() != s.nx || power.Grid.NY() != s.ny {
		return fmt.Errorf("thermal: power grid %dx%d does not match solve grid %dx%d",
			power.Grid.NX(), power.Grid.NY(), s.nx, s.ny)
	}
	return nil
}

// addFluidHeat adds heat (W) to b spread uniformly over all fluid
// nodes.
func (s *system) addFluidHeat(b []float64, heat float64) {
	if heat == 0 {
		return
	}
	nSolid := s.nx * s.ny * s.nz
	perCell := heat / float64(s.n-nSolid)
	for i := nSolid; i < s.n; i++ {
		b[i] += perCell
	}
}

// addPower deposits the power field into every heat-source layer of b
// and returns the integrated power (W).
func (s *system) addPower(b []float64, power *mesh.Field2D) float64 {
	total := 0.0
	for _, k := range s.activeKs {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				q := power.At(i, j) * s.grid.X.Widths[i] * s.grid.Y.Widths[j]
				b[s.sIdx(i, j, k)] += q
				total += q
			}
		}
	}
	return total
}

func (s *system) sIdx(i, j, k int) int { return (k*s.ny+j)*s.nx + i }

// fIdx returns the fluid node of cavity c (index into cavKs) at (i, j).
func (s *system) fIdx(c, i, j int) int {
	return s.nx*s.ny*s.nz + (c*s.ny+j)*s.nx + i
}

// stampCount is the number of COO stamps assemble makes for an
// nx x ny grid of nz solid layers and nCav channel cavities: two per
// solid neighbour pair (one off-diagonal per direction of the
// conductance), one diagonal per solid node, and per fluid node its
// diagonal, the two wall couplings and the upstream advection (none at
// the inlet). Every stamp lands on a distinct entry, so this is the
// matrix's nonzero count; clogged columns skip their zero advection
// stamps, so for them it is an upper bound.
func stampCount(nx, ny, nz, nCav int) int {
	solidPairs := nz*ny*(nx-1) + nz*(ny-1)*nx + (nz-1)*ny*nx
	return 2*solidPairs + nx*ny*nz + nCav*(3*nx*ny+nx*(ny-1))
}

// toCSR converts the assembled stamps and drops the builder, so a
// long-lived session does not keep the triplets reachable.
func (s *system) toCSR() *num.CSR {
	a := s.co.ToCSR()
	s.co = nil
	return a
}

// assemble builds the steady-state network (conductances and
// advection). A transient system also gets the inlet baseline s.b and
// the per-node heat capacities s.cap; the steady sessions solve for the
// displacement from the inlet field and need neither.
func assemble(p *Problem, transient bool) (*system, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Grid()
	nx, ny := g.NX(), g.NY()
	if p.Power.Grid.NX() != nx || p.Power.Grid.NY() != ny {
		return nil, fmt.Errorf("thermal: power grid %dx%d does not match solve grid %dx%d",
			p.Power.Grid.NX(), p.Power.Grid.NY(), nx, ny)
	}
	layers := p.Stack.Layers
	nz := len(layers)
	var cavKs, activeKs []int
	for k, l := range layers {
		if l.Kind == ChannelCavity {
			cavKs = append(cavKs, k)
		}
		if l.HeatSource {
			activeKs = append(activeKs, k)
		}
	}
	if len(cavKs) == 0 {
		return nil, fmt.Errorf("thermal: the stack needs a channel cavity layer (the only heat sink)")
	}
	nSolid := nx * ny * nz
	n := nSolid + len(cavKs)*nx*ny
	s := &system{
		grid: g, co: num.NewCOO(n, n),
		n: n, nx: nx, ny: ny, nz: nz,
		activeKs: activeKs, cavKs: cavKs,
		inletT: p.Stack.Channels.InletTemperature,
	}
	if transient {
		s.b, s.cap = make([]float64, n), make([]float64, n)
	}
	s.co.Grow(stampCount(nx, ny, nz, len(cavKs)))
	spec := p.Stack.Channels
	phi := spec.FluidFraction()
	kEff := func(k int) float64 {
		l := layers[k]
		kc := l.Material.Conductivity
		if l.Kind == ChannelCavity {
			return kc*(1-phi) + spec.Fluid.ThermalConductivity*phi
		}
		return kc
	}
	// A solid node's diagonal collects a conductance from each of its
	// neighbours and its wall coupling: it is summed here in stamp
	// order (so the matrix is bitwise what one diagonal stamp per
	// conductance would give) and stamped once after the loops.
	diag := make([]float64, nSolid)
	stamp := func(a, c int, cond float64) {
		diag[a] += cond
		s.co.Add(a, c, -cond)
	}
	for k := 0; k < nz; k++ {
		t := layers[k].Thickness
		kc := kEff(k)
		cvol := layers[k].Material.VolHeatCapacity
		if layers[k].Kind == ChannelCavity {
			cvol *= 1 - phi // fluid capacity carried by the fluid nodes
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := s.sIdx(i, j, k)
				dx := g.X.Widths[i]
				dy := g.Y.Widths[j]
				if transient {
					s.cap[row] = cvol * dx * dy * t
				}
				if i < nx-1 {
					cond := kc * (dy * t) / g.X.CenterSpacing(i)
					stamp(row, s.sIdx(i+1, j, k), cond)
					stamp(s.sIdx(i+1, j, k), row, cond)
				}
				if j < ny-1 {
					cond := kc * (dx * t) / g.Y.CenterSpacing(j)
					stamp(row, s.sIdx(i, j+1, k), cond)
					stamp(s.sIdx(i, j+1, k), row, cond)
				}
				if k < nz-1 {
					up := s.sIdx(i, j, k+1)
					r := t/(2*kc) + layers[k+1].Thickness/(2*kEff(k+1))
					cond := (dx * dy) / r
					stamp(row, up, cond)
					stamp(up, row, cond)
				}
			}
		}
	}
	h := spec.WallHTC()
	perim := spec.ConvectivePerimeter()
	chanPerCell := float64(spec.NChannels) / float64(nx)
	fluidCapPerCell := spec.Fluid.HeatCapacityVol * spec.Channel.Area() * chanPerCell
	// Per-column flow share (clogging support): column i carries
	// weight_i/sum of the total heat capacity rate.
	weight := func(i int) float64 { return 1.0 / float64(nx) }
	if spec.FlowWeights != nil {
		if len(spec.FlowWeights) != nx {
			return nil, fmt.Errorf("thermal: %d flow weights for %d columns", len(spec.FlowWeights), nx)
		}
		sum := 0.0
		for _, w := range spec.FlowWeights {
			sum += w
		}
		weight = func(i int) float64 { return spec.FlowWeights[i] / sum }
	}
	s.reversed = func(i int) bool { return spec.CounterFlow && i%2 == 1 }
	for c, cavK := range cavKs {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				fRow := s.fIdx(c, i, j)
				sRow := s.sIdx(i, j, cavK)
				dy := g.Y.Widths[j]
				mcCell := spec.HeatCapacityRate() * weight(i)
				gConv := h * perim * dy * chanPerCell
				if mcCell == 0 {
					// Clogged column: stagnant fluid neither advects
					// nor convects meaningfully; couple it weakly to
					// the wall so its node stays well defined.
					gConv *= 1e-6
				}
				stamp(sRow, fRow, gConv)
				s.co.Add(fRow, fRow, gConv+mcCell)
				s.co.Add(fRow, sRow, -gConv)
				atInlet := j == 0
				upstream := j - 1
				if s.reversed(i) {
					atInlet = j == ny-1
					upstream = j + 1
				}
				switch {
				case !atInlet:
					s.co.Add(fRow, s.fIdx(c, i, upstream), -mcCell)
				case transient:
					s.b[fRow] += mcCell * spec.InletTemperature
				}
				if transient {
					s.cap[fRow] = fluidCapPerCell * dy
				}
			}
		}
	}
	for row, d := range diag {
		s.co.Add(row, row, d)
	}
	return s, nil
}

// Solution is the solved temperature state.
type Solution struct {
	Grid *mesh.Grid2D
	// ActiveT is the hottest heat-source-plane temperature per cell (K);
	// for single-die stacks this is simply the active plane.
	ActiveT *mesh.Field2D
	// TierActiveT holds each heat-source layer's plane separately
	// (bottom-up), for multi-tier stacks.
	TierActiveT []*mesh.Field2D
	// WallT is the first cavity's solid (channel wall) temperature (K).
	WallT *mesh.Field2D
	// FluidT is the first cavity's coolant temperature (K) per cell.
	FluidT *mesh.Field2D
	// PeakT is the maximum active-plane temperature (K) over all tiers.
	PeakT float64
	// PeakX, PeakY locate the peak (m).
	PeakX, PeakY float64
	// OutletT is the mean coolant outlet temperature (K) over all
	// cavities.
	OutletT float64
	// MeanFluidT is the volume-mean coolant temperature (K) over all
	// cavities, the value the electrochemistry sees in co-simulation.
	MeanFluidT float64
	// MeanWallT is the mean channel-wall temperature (K) over all
	// cavities.
	MeanWallT float64
	// TotalPower is the integrated chip power (W, all tiers).
	TotalPower float64
}

func (s *system) extract(x []float64) *Solution {
	sol := &Solution{
		Grid:       s.grid,
		ActiveT:    mesh.NewField2D(s.grid),
		WallT:      mesh.NewField2D(s.grid),
		FluidT:     mesh.NewField2D(s.grid),
		PeakT:      -1,
		TotalPower: s.totalPower,
	}
	for range s.activeKs {
		sol.TierActiveT = append(sol.TierActiveT, mesh.NewField2D(s.grid))
	}
	nCav := len(s.cavKs)
	var fluidSum, wallSum float64
	for j := 0; j < s.ny; j++ {
		for i := 0; i < s.nx; i++ {
			hottest := -1.0
			for t, k := range s.activeKs {
				ta := x[s.sIdx(i, j, k)]
				sol.TierActiveT[t].Set(i, j, ta)
				if ta > hottest {
					hottest = ta
				}
			}
			sol.ActiveT.Set(i, j, hottest)
			if hottest > sol.PeakT {
				sol.PeakT = hottest
				sol.PeakX, sol.PeakY = s.grid.X.Centers[i], s.grid.Y.Centers[j]
			}
			sol.WallT.Set(i, j, x[s.sIdx(i, j, s.cavKs[0])])
			sol.FluidT.Set(i, j, x[s.fIdx(0, i, j)])
			for c := 0; c < nCav; c++ {
				tf := x[s.fIdx(c, i, j)]
				tw := x[s.sIdx(i, j, s.cavKs[c])]
				fluidSum += tf
				wallSum += tw
				outletJ := s.ny - 1
				if s.reversed != nil && s.reversed(i) {
					outletJ = 0
				}
				if j == outletJ {
					sol.OutletT += tf / float64(s.nx*nCav)
				}
			}
		}
	}
	sol.MeanFluidT = fluidSum / float64(s.nx*s.ny*nCav)
	sol.MeanWallT = wallSum / float64(s.nx*s.ny*nCav)
	return sol
}

// Solve computes the steady-state temperature field.
func Solve(p *Problem) (*Solution, error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation, checked once before the
// solve. It is a fresh Session's first solve from zero: the cold answer
// and a session's are one code path.
func SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ses, err := NewSession(p)
	if err != nil {
		return nil, err
	}
	return ses.SolveContext(ctx, nil, p.ExtraFluidHeat)
}
