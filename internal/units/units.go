// Package units provides the physical constants and unit conversions
// shared by every physics package in the repository.
//
// All internal computation uses SI base units (m, kg, s, K, A, mol, V, W,
// Pa). The conversion helpers exist so that package boundaries and user
// facing configuration can speak the units the paper uses (uL/min, ml/min,
// bar, degrees Celsius, mA/cm2, W/cm2) without ad-hoc factors scattered
// through the code.
package units

// Fundamental physical constants (CODATA values, SI units).
const (
	// GasConstant is the universal gas constant R in J/(mol*K).
	GasConstant = 8.314462618
	// Faraday is the Faraday constant F in C/mol.
	Faraday = 96485.33212
	// ZeroCelsius is 0 degrees Celsius expressed in kelvin.
	ZeroCelsius = 273.15
	// StandardTemperature is the electrochemical standard temperature
	// (25 C) in kelvin.
	StandardTemperature = 298.15
	// AtmosphericPressure is one standard atmosphere in Pa.
	AtmosphericPressure = 101325.0
	// Bar is one bar in Pa.
	Bar = 1e5
)

// Length conversions.
const (
	Millimeter = 1e-3 // m
	Micrometer = 1e-6 // m
)

// SquareCentimeter is one square centimeter in m2.
const SquareCentimeter = 1e-4

// MToUM converts a length in meters to micrometers (the unit the
// paper's channel-geometry tables use).
func MToUM(m float64) float64 { return m / Micrometer }

// UMToM converts a length in micrometers to meters.
func UMToM(um float64) float64 { return um * Micrometer }

// MToMM converts a length in meters to millimeters.
func MToMM(m float64) float64 { return m / Millimeter }

// CtoK converts a temperature in degrees Celsius to kelvin.
func CtoK(c float64) float64 { return c + ZeroCelsius }

// KtoC converts a temperature in kelvin to degrees Celsius.
func KtoC(k float64) float64 { return k - ZeroCelsius }

// ULPerMinToM3PerS converts a volumetric flow rate in microliters per
// minute to cubic meters per second.
func ULPerMinToM3PerS(ul float64) float64 { return ul * 1e-9 / 60.0 }

// MLPerMinToM3PerS converts a volumetric flow rate in milliliters per
// minute to cubic meters per second.
func MLPerMinToM3PerS(ml float64) float64 { return ml * 1e-6 / 60.0 }

// M3PerSToMLPerMin converts a volumetric flow rate in cubic meters per
// second to milliliters per minute.
func M3PerSToMLPerMin(q float64) float64 { return q * 60.0 * 1e6 }

// PaToBar converts a pressure in Pa to bar.
func PaToBar(p float64) float64 { return p / Bar }

// BarToPa converts a pressure in bar to Pa.
func BarToPa(b float64) float64 { return b * Bar }

// APerM2ToMAPerCM2 converts a current density from A/m2 to mA/cm2 (the
// unit used on the x axis of the paper's Fig. 3).
func APerM2ToMAPerCM2(j float64) float64 { return j * 0.1 }

// WPerM2ToWPerCM2 converts a power (or heat-flux) density from W/m2 to
// W/cm2, the unit used for chip power densities in the paper.
func WPerM2ToWPerCM2(q float64) float64 { return q * 1e-4 }

// WPerCM2ToWPerM2 converts a power density from W/cm2 to W/m2.
func WPerCM2ToWPerM2(q float64) float64 { return q * 1e4 }
