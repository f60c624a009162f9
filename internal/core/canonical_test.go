package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalKeyStableUnderSubTolerancePerturbation(t *testing.T) {
	base := DefaultConfig()
	key := base.CanonicalKey()
	// Perturb every field by far less than the solver tolerance: the key
	// must not move.
	perturbed := base
	perturbed.FlowMLMin += 1e-12
	perturbed.InletTempC -= 3e-13
	perturbed.SupplyVoltage += 2e-12
	perturbed.ChipLoad -= 1e-13
	perturbed.ManifoldK += 4e-12
	perturbed.PumpEfficiency -= 2e-13
	if got := perturbed.CanonicalKey(); got != key {
		t.Fatalf("sub-tolerance perturbation changed the key:\n  %s\n  %s", key, got)
	}
}

func TestCanonicalKeyDistinguishesRealChanges(t *testing.T) {
	base := DefaultConfig()
	key := base.CanonicalKey()
	mutations := []func(*Config){
		func(c *Config) { c.FlowMLMin = 48 },
		func(c *Config) { c.InletTempC = 37 },
		func(c *Config) { c.SupplyVoltage = 0.95 },
		func(c *Config) { c.ChipLoad = 0.5 },
		func(c *Config) { c.ManifoldK = 2.0 },
		func(c *Config) { c.PumpEfficiency = 0.6 },
	}
	for k, mutate := range mutations {
		c := base
		mutate(&c)
		if c.CanonicalKey() == key {
			t.Errorf("case %d: distinct config mapped to the same key", k)
		}
	}
}

func TestCanonicalKeyNormalizesNegativeZero(t *testing.T) {
	a := DefaultConfig()
	b := a
	a.ChipLoad = 0
	b.ChipLoad = math.Copysign(0, -1)
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("0 and -0 must map to the same key")
	}
}

// TestCanonicalKeyCoversEveryField guards the hash against silently
// dropping fields: every exported field of Config must (a) be counted by
// floatFields and (b) appear by name in the key, so adding a field
// without extending CanonicalKey fails this test.
func TestCanonicalKeyCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	n := typ.NumField()
	fields := DefaultConfig().floatFields()
	if len(fields) != n {
		t.Fatalf("Config has %d fields but floatFields covers %d — "+
			"extend floatFields (and CanonicalKey/Validate) for the new field", n, len(fields))
	}
	key := DefaultConfig().CanonicalKey()
	for i := 0; i < n; i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			t.Fatalf("Config.%s is %s; floatFields only handles float64 — "+
				"teach CanonicalKey about the new kind", f.Name, f.Type)
		}
		if !strings.Contains(key, f.Name+"=") {
			t.Errorf("field %s missing from canonical key %q", f.Name, key)
		}
	}
}

// TestChainKeyTracksHydrodynamicConditionOnly pins ChainKey's contract:
// it moves with the flow (beyond tolerance) and with nothing else — an
// inlet-temperature change never moves it, nor do the electrical
// fields — and it shares CanonicalKey's quantization so sub-tolerance
// jitter never splits a warm-start chain.
func TestChainKeyTracksHydrodynamicConditionOnly(t *testing.T) {
	base := DefaultConfig()
	key := base.ChainKey()

	// Inlet and electrical changes keep the chain.
	same := base
	same.InletTempC = 37
	same.SupplyVoltage = 0.85
	same.ChipLoad = 0.4
	same.ManifoldK = 2.0
	same.PumpEfficiency = 0.7
	if got := same.ChainKey(); got != key {
		t.Fatalf("inlet or electrical change moved the chain key:\n  %s\n  %s", key, got)
	}

	// Sub-tolerance flow jitter keeps the chain too.
	jitter := base
	jitter.FlowMLMin += 1e-12
	if got := jitter.ChainKey(); got != key {
		t.Fatalf("sub-tolerance jitter moved the chain key:\n  %s\n  %s", key, got)
	}

	// A real flow change must move it.
	flow := base
	flow.FlowMLMin = 300
	if flow.ChainKey() == key {
		t.Fatal("flow change did not move the chain key")
	}

	// -0 normalizes like CanonicalKey's fields do.
	zp, zn := base, base
	zp.FlowMLMin = 0
	zn.FlowMLMin = math.Copysign(0, -1)
	if zp.ChainKey() != zn.ChainKey() {
		t.Fatal("0 and -0 flows must share a chain key")
	}

	// The chain key is a projection of the canonical key's vocabulary:
	// both name fields identically, so the two keys can be correlated in
	// logs and cache dumps.
	if !strings.Contains(base.CanonicalKey(), key) {
		t.Fatalf("chain key %q is not a projection of canonical key %q", key, base.CanonicalKey())
	}
}
