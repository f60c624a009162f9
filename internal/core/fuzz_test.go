package core

import (
	"math"
	"testing"
)

// quantRef reproduces CanonicalKey's quantization spec independently:
// round to the keyTolerance grid and normalize -0 to 0. The fuzz
// targets use it to state key equality as a property of the quantized
// field tuple, so any drift between the key and its documented
// tolerance shows up as a mismatch here.
func quantRef(v float64) float64 {
	q := math.Round(v/keyTolerance) * keyTolerance
	if q == 0 {
		q = 0 // fold -0 into 0 so both render identically
	}
	return q
}

func fuzzConfig(flow, inlet, volt, load, k, eff float64) Config {
	return Config{
		FlowMLMin:      flow,
		InletTempC:     inlet,
		SupplyVoltage:  volt,
		ChipLoad:       load,
		ManifoldK:      k,
		PumpEfficiency: eff,
	}
}

func allFinite(c Config) bool {
	for _, f := range c.floatFields() {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return false
		}
	}
	return true
}

// FuzzCanonicalKey checks the cache-key contract under arbitrary field
// values: keys are deterministic, non-finite configs never validate
// (so they can never be planted in a cache), sub-tolerance
// perturbations that round to the same grid point keep the same key,
// and two configs share a key exactly when their quantized field
// tuples coincide.
func FuzzCanonicalKey(f *testing.F) {
	d := DefaultConfig()
	f.Add(d.FlowMLMin, d.InletTempC, d.SupplyVoltage, d.ChipLoad, d.ManifoldK, d.PumpEfficiency)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-0.0, 676.0000000004, 1.0, 1.0, 1.5, 0.5)
	f.Add(math.NaN(), 27.0, 1.0, 1.0, 1.5, 0.5)
	f.Add(676.0, math.Inf(1), 1.0, 1.0, 1.5, 0.5)
	f.Add(1e-12, -1e-12, 1e300, -1e300, 2.5e-10, -2.5e-10)

	f.Fuzz(func(t *testing.T, flow, inlet, volt, load, k, eff float64) {
		c := fuzzConfig(flow, inlet, volt, load, k, eff)

		if !allFinite(c) {
			if err := c.Validate(); err == nil {
				t.Fatalf("Validate accepted a non-finite config: %+v", c)
			}
			// Non-finite configs are rejected before keying matters;
			// nothing further to pin down.
			return
		}

		key := c.CanonicalKey()
		if again := c.CanonicalKey(); again != key {
			t.Fatalf("CanonicalKey not deterministic: %q then %q", key, again)
		}

		// A perturbation below half the grid spacing keeps the key
		// whenever it rounds to the same grid point (it can legitimately
		// differ when the value sits near a rounding boundary).
		p := c
		p.FlowMLMin += keyTolerance / 8
		p.InletTempC -= keyTolerance / 8
		if quantRef(p.FlowMLMin) == quantRef(c.FlowMLMin) &&
			quantRef(p.InletTempC) == quantRef(c.InletTempC) {
			if p.CanonicalKey() != key {
				t.Fatalf("sub-tolerance perturbation changed the key:\n  %q\n  %q", key, p.CanonicalKey())
			}
		}

		// Key equality must coincide with quantized-tuple equality: pair
		// the config against a mutated copy of itself and compare.
		m := fuzzConfig(inlet, flow, volt+keyTolerance*3, load, k, eff)
		if !allFinite(m) {
			return
		}
		cf, mf := c.floatFields(), m.floatFields()
		tuplesEqual := true
		for i := range cf {
			if quantRef(cf[i].Value) != quantRef(mf[i].Value) {
				tuplesEqual = false
				break
			}
		}
		keysEqual := m.CanonicalKey() == key
		if keysEqual != tuplesEqual {
			t.Fatalf("key equality (%v) disagrees with quantized-tuple equality (%v):\n  %q\n  %q",
				keysEqual, tuplesEqual, key, m.CanonicalKey())
		}
	})
}

// FuzzChainKey checks that the per-chain solver key depends on exactly
// the one field the chain's thermal operator depends on — the flow —
// and nothing else: the inlet temperature and the electrical fields may
// vary freely without splitting the chain cache, while any quantized
// change to the flow must split it.
func FuzzChainKey(f *testing.F) {
	d := DefaultConfig()
	f.Add(d.FlowMLMin, d.InletTempC, d.SupplyVoltage, d.ChipLoad)
	f.Add(0.0, -0.0, 1e-9, 2e-9)
	f.Add(676.0000000004, 27.0, 0.8, 0.25)

	f.Fuzz(func(t *testing.T, flow, inlet, volt, load float64) {
		c := fuzzConfig(flow, inlet, volt, load, 1.5, 0.5)
		key := c.ChainKey()
		if again := c.ChainKey(); again != key {
			t.Fatalf("ChainKey not deterministic: %q then %q", key, again)
		}

		// The inlet and the electrical-side fields must not influence
		// the chain key.
		e := c
		e.InletTempC = inlet + 10
		e.SupplyVoltage = volt + 0.25
		e.ChipLoad = load + 1
		e.ManifoldK = 9.75
		e.PumpEfficiency = 0.125
		if e.ChainKey() != key {
			t.Fatalf("non-flow field changed ChainKey:\n  %q\n  %q", key, e.ChainKey())
		}

		// A quantized change to the flow must split it.
		if !math.IsNaN(flow) && !math.IsInf(flow, 0) {
			h := c
			h.FlowMLMin = flow + 7*keyTolerance
			if quantRef(h.FlowMLMin) != quantRef(flow) && h.ChainKey() == key {
				t.Fatalf("flow moved across the grid but ChainKey held: %q", key)
			}
		}
	})
}
