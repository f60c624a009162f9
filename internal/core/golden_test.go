package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bright/internal/floorplan"
	"bright/internal/mesh"
	"bright/internal/pdn"
	"bright/internal/thermal"
	"bright/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenTol is the one table of what "agrees with the golden file"
// means. The file is written at round-trip precision, so the bounds
// are the stated drift a solver change may cause, not print rounding.
var goldenTol = struct {
	// Rel bounds |got-want| / max(|got|, |want|) for every continuous
	// (float64) field.
	Rel float64
	// PeakTieK: PeakX and PeakY are compared, exactly (they are cell
	// centres), only where the hottest active cell beats the runner-up
	// by more than this many kelvin. Below it the location is a tie
	// that solver noise can flip: the Power7 floorplan is
	// mirror-symmetric across x, and at 48 ml/min its two hottest cells
	// agree within ~1e-9 K while the reported peak jumps between
	// 3.17 and 23.38 mm. The margin exceeds the 2·Rel·T (< 1e-6 K) by
	// which a Rel-bounded drift can close a gap at these temperatures.
	// Every point pinned here is such a mirror tie (gaps 5e-10 to
	// 6e-9 K), so the file does not pin the peak location until the
	// solver reports ties by a fixed rule (ROADMAP item 5).
	PeakTieK float64
	// WorstTieV is the same rule for the power grid's worst cache cell:
	// Grid.WorstX and Grid.WorstY are compared only where the lowest
	// cache-cell voltage beats the runner-up by more than this many
	// volts. The via sites and cache units are mirror-placed, and at
	// every point pinned here the four lowest cache cells (x ≈
	// 13.15/13.40 mm, y ≈ 7.91/13.43 mm) agree within 1e-15 V, so which
	// of them the solve reports is solver noise. The margin exceeds the
	// 2·Rel·V (< 3e-9 V) by which a Rel-bounded drift can close a gap at
	// these voltages.
	WorstTieV float64
	// Booleans and integer counts (iterations, slice lengths) are
	// compared exactly.
}{Rel: 1e-9, PeakTieK: 1e-5, WorstTieV: 1e-6}

// goldenConfigs are the cold core.Evaluate points the file pins: the
// paper's operating points, the corners of the benchmark's request
// domain and two extremes. The corners are the 2^(4-1) half fraction
// of flow 300–1000 ml/min × inlet 20–40 °C × supply 0.9–1.1 V ×
// load 0.5–1.0 (load high where an odd number of the other three are
// high), so every pair of those axes meets at all four of its corners;
// ManifoldK (1–2) and PumpEfficiency (0.4–0.7) ride along.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"paper-676ml-27C", DefaultConfig()},
	{"paper-48ml-27C", with(func(c *Config) { c.FlowMLMin = 48 })},
	{"paper-676ml-37C", with(func(c *Config) { c.InletTempC = 37 })},
	{"paper-1200ml-27C", with(func(c *Config) { c.FlowMLMin = 1200 })},
	{"corner-300-20-0.9-0.5", Config{300, 20, 0.9, 0.5, 2.0, 0.7}},
	{"corner-1000-20-0.9-1.0", Config{1000, 20, 0.9, 1.0, 1.0, 0.4}},
	{"corner-300-40-0.9-1.0", Config{300, 40, 0.9, 1.0, 1.0, 0.7}},
	{"corner-1000-40-0.9-0.5", Config{1000, 40, 0.9, 0.5, 2.0, 0.4}},
	{"corner-300-20-1.1-1.0", Config{300, 20, 1.1, 1.0, 2.0, 0.4}},
	{"corner-1000-20-1.1-0.5", Config{1000, 20, 1.1, 0.5, 1.0, 0.7}},
	{"corner-300-40-1.1-0.5", Config{300, 40, 1.1, 0.5, 1.0, 0.4}},
	{"corner-1000-40-1.1-1.0", Config{1000, 40, 1.1, 1.0, 2.0, 0.7}},
	{"load-2.0", with(func(c *Config) { c.ChipLoad = 2 })},
	{"supply-0.6V", with(func(c *Config) { c.SupplyVoltage = 0.6 })},
}

func with(mutate func(*Config)) Config {
	c := DefaultConfig()
	mutate(&c)
	return c
}

// goldenFile is testdata/golden.json: each pinned answer flattened to
// dotted field paths (see flatten).
type goldenFile struct {
	Evaluate map[string]goldenEntry `json:"evaluate"`
	// ThermalSolve is thermal.Solve(Power7Problem(676, CtoK(27), 0)),
	// the Fig. 9 map with no flow-cell heat.
	ThermalSolve map[string]any `json:"thermal_solve"`
}

type goldenEntry struct {
	Config Config         `json:"config"`
	Fields map[string]any `json:"fields"`
}

// TestGolden compares cold answers field by field against the
// committed testdata/golden.json within goldenTol. Regenerate with
// `go test -run Golden ./internal/core/ -update`; a change that does so
// states in CHANGES.md the largest drift per field and why.
func TestGolden(t *testing.T) {
	got := goldenFile{Evaluate: map[string]goldenEntry{}}
	gaps := map[string]tieGaps{}
	for _, gc := range goldenConfigs {
		sys, err := NewSystem(gc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		rep, err := sys.Evaluate()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		got.Evaluate[gc.name] = goldenEntry{Config: gc.cfg, Fields: flattenAnswer(rep)}
		gaps[gc.name] = tieGaps{
			peakK:  peakGap(rep.Thermal.ActiveT),
			worstV: worstCacheGap(rep.Grid, sys.Floorplan.RasterizeMask(rep.Grid.Grid, floorplan.UnitKind.IsCache)),
		}
	}
	sol, err := thermal.Solve(thermal.Power7Problem(676, units.CtoK(27), 0))
	if err != nil {
		t.Fatal(err)
	}
	got.ThermalSolve = flattenAnswer(sol)
	gaps["thermal_solve"] = tieGaps{peakK: peakGap(sol.ActiveT)}

	if *update {
		writeGolden(t, got)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Evaluate) != len(got.Evaluate) {
		t.Errorf("golden file has %d evaluate points, the test %d", len(want.Evaluate), len(got.Evaluate))
	}
	for _, gc := range goldenConfigs {
		w, ok := want.Evaluate[gc.name]
		if !ok {
			t.Errorf("%s: missing from the golden file", gc.name)
			continue
		}
		if w.Config != gc.cfg {
			t.Errorf("%s: golden config %+v, test config %+v", gc.name, w.Config, gc.cfg)
			continue
		}
		compareGolden(t, gc.name, got.Evaluate[gc.name].Fields, w.Fields, gaps[gc.name])
	}
	compareGolden(t, "thermal_solve", got.ThermalSolve, want.ThermalSolve, gaps["thermal_solve"])
}

func writeGolden(t *testing.T, g goldenFile) {
	t.Helper()
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", goldenPath)
}

// isPeakLocation reports whether a flattened key names a peak
// location: nested (a report's Thermal.PeakX) or at the top level (the
// thermal_solve entry's bare PeakX).
func isPeakLocation(k string) bool {
	return k == "PeakX" || k == "PeakY" || strings.HasSuffix(k, ".PeakX") || strings.HasSuffix(k, ".PeakY")
}

// isWorstLocation reports whether a flattened key locates the power
// grid's worst cache cell.
func isWorstLocation(k string) bool {
	return k == "Grid.WorstX" || k == "Grid.WorstY"
}

// tieGaps holds the margins by which one answer's located extremes
// beat their runners-up: the hottest active cell (K) and the lowest
// cache-cell voltage of the power grid (V; zero where the answer has no
// grid).
type tieGaps struct {
	peakK, worstV float64
}

// compareGolden checks every field of one answer against its golden
// entry under goldenTol. JSON decodes every golden number as float64,
// which holds the file's counts and round-trip floats exactly.
func compareGolden(t *testing.T, name string, got, want map[string]any, gaps tieGaps) {
	t.Helper()
	for _, k := range sortedKeys(want) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: field %s is in the golden file but not in the answer", name, k)
		}
	}
	for _, k := range sortedKeys(got) {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: field %s is missing from the golden file", name, k)
			continue
		}
		if isPeakLocation(k) && gaps.peakK <= goldenTol.PeakTieK ||
			isWorstLocation(k) && gaps.worstV <= goldenTol.WorstTieV {
			continue
		}
		switch g := got[k].(type) {
		case bool:
			if w != g {
				t.Errorf("%s: %s = %v, golden %v", name, k, g, w)
			}
		case int:
			if w != float64(g) {
				t.Errorf("%s: %s = %d, golden %v", name, k, g, w)
			}
		case float64:
			wf, _ := w.(float64)
			if d := math.Abs(g - wf); d > goldenTol.Rel*math.Max(math.Abs(g), math.Abs(wf)) {
				t.Errorf("%s: %s = %.17g, golden %.17g (rel %.2e > %.0e)",
					name, k, g, wf, d/math.Max(math.Abs(g), math.Abs(wf)), goldenTol.Rel)
			}
		}
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakGap returns how much the hottest cell of an active-plane map
// beats the runner-up (K).
func peakGap(f *mesh.Field2D) float64 {
	first, second := math.Inf(-1), math.Inf(-1)
	for _, v := range f.Data {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return first - second
}

// worstCacheGap returns how much the lowest cache-cell voltage of a
// grid solution beats the runner-up (V); cache is the grid's cache mask
// (1 inside a cache unit).
func worstCacheGap(sol *pdn.Solution, cache *mesh.Field2D) float64 {
	first, second := math.Inf(1), math.Inf(1)
	for k, v := range sol.V.Data {
		if cache.Data[k] == 0 {
			continue
		}
		if v < first {
			first, second = v, first
		} else if v < second {
			second = v
		}
	}
	return second - first
}

// flattenAnswer records every leaf of an answer under its dotted field
// path.
func flattenAnswer(v any) map[string]any {
	out := map[string]any{}
	flatten("", reflect.ValueOf(v), map[uintptr]bool{}, out)
	return out
}

var (
	field2DType = reflect.TypeOf(&mesh.Field2D{})
	grid2DType  = reflect.TypeOf(&mesh.Grid2D{})
)

// flatten walks structs, pointers and slices and records each float64,
// int and bool leaf; a slice also records its length. A *mesh.Field2D
// records its min, max, mean and standard deviation rather than every
// cell; a *mesh.Grid2D is geometry, not an answer, and records nothing.
// A pointer reached twice (Report.Thermal is Report.CoSim.Thermal) is
// recorded under its first path only.
func flatten(path string, v reflect.Value, seen map[uintptr]bool, out map[string]any) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == grid2DType || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if v.Type() == field2DType {
			for stat, x := range fieldStats(v.Interface().(*mesh.Field2D)) {
				out[path+"."+stat] = x
			}
			return
		}
		flatten(path, v.Elem(), seen, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			p := f.Name
			if path != "" {
				p = path + "." + p
			}
			flatten(p, v.Field(i), seen, out)
		}
	case reflect.Slice:
		out[path+".len"] = v.Len()
		for i := 0; i < v.Len(); i++ {
			flatten(fmt.Sprintf("%s[%d]", path, i), v.Index(i), seen, out)
		}
	case reflect.Float64:
		out[path] = v.Float()
	case reflect.Int:
		out[path] = int(v.Int())
	case reflect.Bool:
		out[path] = v.Bool()
	}
}

func fieldStats(f *mesh.Field2D) map[string]float64 {
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range f.Data {
		lo, hi, sum = math.Min(lo, v), math.Max(hi, v), sum+v
	}
	mean := sum / float64(len(f.Data))
	ss := 0.0
	for _, v := range f.Data {
		ss += (v - mean) * (v - mean)
	}
	return map[string]float64{"min": lo, "max": hi, "mean": mean, "std": math.Sqrt(ss / float64(len(f.Data)))}
}
