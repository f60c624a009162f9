// Package echem implements the electrochemical theory of Section II of
// the paper: Nernst equilibrium potentials, Butler-Volmer electrode
// kinetics with mass-transfer-limited surface concentrations, and the
// temperature dependence of the kinetic and
// transport parameters (Arrhenius forms following Al-Fetlawi et al. 2009,
// the paper's reference [24]).
//
// Sign conventions: current densities are magnitudes (A/m2, positive);
// the reaction direction is carried explicitly by Mode. Overpotentials
// are signed: positive for oxidation (anodic), negative for reduction
// (cathodic), so that E_electrode = E_Nernst(bulk) + eta in all cases.
package echem

import (
	"fmt"
	"math"

	"bright/internal/units"
)

// Mode selects the reaction direction at an electrode.
type Mode int

const (
	// Oxidation: Red -> Ox + n e- (the anode of a discharging cell).
	Oxidation Mode = iota
	// Reduction: Ox + n e- -> Red (the cathode of a discharging cell).
	Reduction
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Oxidation:
		return "oxidation"
	case Reduction:
		return "reduction"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Couple describes one redox couple with its kinetic and transport
// parameters at a reference temperature, plus activation energies for
// Arrhenius scaling to other temperatures.
type Couple struct {
	Name string
	// E0 is the standard electrode potential in V vs SHE.
	E0 float64
	// N is the number of electrons transferred (1 for both vanadium
	// couples, reactions (2) and (3) in the paper).
	N int
	// Alpha is the (anodic) transfer coefficient in (0, 1).
	Alpha float64
	// K0Ref is the standard heterogeneous rate constant (m/s) at TRef.
	K0Ref float64
	// DOxRef and DRedRef are the diffusion coefficients (m2/s) of the
	// oxidized and reduced species at TRef.
	DOxRef, DRedRef float64
	// EaK0 and EaD are Arrhenius activation energies (J/mol) for the
	// rate constant and the diffusion coefficients.
	EaK0, EaD float64
	// TRef is the reference temperature (K) for the parameters above.
	TRef float64
}

// Validate reports whether the couple's parameters are physical.
func (c Couple) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("echem: couple %q: N = %d", c.Name, c.N)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("echem: couple %q: alpha = %g out of (0,1)", c.Name, c.Alpha)
	}
	if c.K0Ref <= 0 || c.DOxRef <= 0 || c.DRedRef <= 0 {
		return fmt.Errorf("echem: couple %q: nonpositive kinetic/transport parameter", c.Name)
	}
	if c.TRef <= 0 {
		return fmt.Errorf("echem: couple %q: TRef = %g", c.Name, c.TRef)
	}
	return nil
}

// arrhenius scales a reference value by exp(-Ea/R (1/T - 1/TRef)), i.e.
// the value increases with temperature for positive Ea.
func arrhenius(ref, ea, t, tRef float64) float64 {
	return ref * math.Exp(-ea/units.GasConstant*(1/t-1/tRef))
}

// K0 returns the rate constant at temperature t (K).
func (c Couple) K0(t float64) float64 { return arrhenius(c.K0Ref, c.EaK0, t, c.TRef) }

// DOx returns the oxidized-species diffusion coefficient at t (K).
func (c Couple) DOx(t float64) float64 { return arrhenius(c.DOxRef, c.EaD, t, c.TRef) }

// DRed returns the reduced-species diffusion coefficient at t (K).
func (c Couple) DRed(t float64) float64 { return arrhenius(c.DRedRef, c.EaD, t, c.TRef) }

// Default activation energies (J/mol). The rate-constant value follows
// the Butler-Volmer fits of Al-Fetlawi et al. 2009 for the vanadium
// couples; the diffusion value reflects Stokes-Einstein scaling with the
// sulfuric-acid electrolyte's viscosity activation energy.
const (
	DefaultEaK0 = 22e3
	DefaultEaD  = 20e3
)

// VanadiumNegative returns the V2+/V3+ couple with the paper's Table I
// parameters (anode of the validation cell, reaction (2): E0 = -0.255 V).
func VanadiumNegative() Couple {
	return Couple{
		Name:    "V(II)/V(III)",
		E0:      -0.255,
		N:       1,
		Alpha:   0.5,
		K0Ref:   2e-5,
		DOxRef:  1.7e-10,
		DRedRef: 1.7e-10,
		EaK0:    DefaultEaK0,
		EaD:     DefaultEaD,
		TRef:    units.StandardTemperature,
	}
}

// VanadiumPositive returns the VO2+/VO2+ couple with the paper's Table I
// parameters (cathode of the validation cell, reaction (3): E0 = +0.991 V).
func VanadiumPositive() Couple {
	return Couple{
		Name:    "V(IV)/V(V)",
		E0:      0.991,
		N:       1,
		Alpha:   0.5,
		K0Ref:   1e-5,
		DOxRef:  1.3e-10,
		DRedRef: 1.3e-10,
		EaK0:    DefaultEaK0,
		EaD:     DefaultEaD,
		TRef:    units.StandardTemperature,
	}
}

// VanadiumNegativeTableII and VanadiumPositiveTableII return the couples
// with the Table II parameters used for the POWER7+ array (the Rapp 2012
// thesis data, reference [20]): higher rate constants and, on the anode,
// a higher diffusion coefficient than the Table I validation cell.
func VanadiumNegativeTableII() Couple {
	c := VanadiumNegative()
	c.K0Ref = 5.33e-5
	c.DOxRef = 4.13e-10
	c.DRedRef = 4.13e-10
	c.TRef = 300
	return c
}

// VanadiumPositiveTableII returns the positive couple with Table II
// parameters. Note Table II rounds the standard potential to 1.0 V.
func VanadiumPositiveTableII() Couple {
	c := VanadiumPositive()
	c.E0 = 1.0
	c.K0Ref = 4.67e-5
	c.DOxRef = 1.26e-10
	c.DRedRef = 1.26e-10
	c.TRef = 300
	return c
}
