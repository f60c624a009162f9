package sim

import (
	"encoding/json"
	"testing"

	"bright/internal/core"
)

// FuzzCacheSnapshotRestore throws arbitrary bytes at the snapshot
// restore path that brightd exposes as PUT /v1/cache/snapshot: whatever
// a peer (or an attacker) uploads, the decode+restore pipeline must not
// panic, must keep the cache within its capacity, must account for
// every entry as either restored or skipped, and must reject foreign
// wire versions outright.
func FuzzCacheSnapshotRestore(f *testing.F) {
	valid := core.DefaultConfig()
	validSnap := CacheSnapshot{
		Version:  CacheSnapshotVersion,
		Capacity: 4,
		Entries: []CacheSnapshotEntry{
			{Key: valid.CanonicalKey(), Report: &core.Report{Config: valid}},
		},
	}
	seed, err := json.Marshal(validSnap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":2,"capacity":1,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"bogus","report":{}}]}`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"","report":null}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s CacheSnapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return // not a snapshot; the HTTP handler rejects it before restore
		}

		const capacity = 2
		c := newLRUCache(capacity)
		restored, skipped, err := c.RestoreSnapshot(s)

		if s.Version != CacheSnapshotVersion {
			if err == nil {
				t.Fatalf("RestoreSnapshot accepted wire version %d (this build speaks %d)", s.Version, CacheSnapshotVersion)
			}
			if restored != 0 || skipped != 0 {
				t.Fatalf("rejected snapshot still reported work: restored=%d skipped=%d", restored, skipped)
			}
			return
		}
		if err != nil {
			t.Fatalf("RestoreSnapshot failed on a version-%d snapshot: %v", CacheSnapshotVersion, err)
		}
		if restored+skipped != len(s.Entries) {
			t.Fatalf("accounting leak: %d entries but restored=%d skipped=%d", len(s.Entries), restored, skipped)
		}
		if c.Len() > capacity {
			t.Fatalf("cache over capacity after restore: Len=%d cap=%d", c.Len(), capacity)
		}

		// Every restored entry must be reachable under the key it was
		// stored at; key-mismatched and report-less entries must have
		// been skipped, never planted.
		for _, e := range s.Entries {
			if e.Report == nil || e.Report.Config.CanonicalKey() != e.Key {
				continue
			}
			// Entries beyond capacity may have been evicted; a hit, when
			// present, must carry a self-consistent report.
			if rep, ok := c.Get(e.Key); ok && rep.Config.CanonicalKey() != e.Key {
				t.Fatalf("cache returned a report whose config does not match its key %q", e.Key)
			}
		}
	})
}

// FuzzSweepChains pins the chain partition both the engine and the
// cluster coordinator schedule by: for any spec Grid() accepts, the
// chains' grids, concatenated, are exactly Grid() in order; there is
// one chain per flow, every point of a chain shares its flow; and each
// chain carries the full inlet x voltage x load sub-grid. counts packs one byte per
// axis (flow, inlet, voltage, load); each byte mod 6 is that axis's
// length, 0 leaving the axis empty so it falls back to the base.
func FuzzSweepChains(f *testing.F) {
	f.Add(uint32(0x01010101), 676.0, 0.0, 27.0, 0.0, 1.0, 0.0, 1.0, 0.0, false)
	f.Add(uint32(0x02020202), 100.0, 576.0, 27.0, 20.0, 0.9, 0.1, 0.5, 0.5, false)
	f.Add(uint32(0x00000011), 48.0, 10.0, 37.0, 5.0, 0.8, 0.025, 0.25, 0.05, true)
	f.Add(uint32(0x05000300), 300.0, 0.0, 27.0, 0.0, 1.0, 0.05, 1.0, 0.0, false)
	f.Add(uint32(0x03030303), -5.0, 1.0, 95.0, -1.0, 1.0, 0.0, 1.0, 0.0, true)

	f.Fuzz(func(t *testing.T, counts uint32, flow0, dFlow, inlet0, dInlet, volt0, dVolt, load0, dLoad float64, customBase bool) {
		axis := func(k int, start, step float64) []float64 {
			vals := make([]float64, int(counts>>(8*k)&0xff)%6)
			for i := range vals {
				vals[i] = start + float64(i)*step
			}
			return vals
		}
		spec := SweepSpec{
			FlowsMLMin:     axis(0, flow0, dFlow),
			InletTempsC:    axis(1, inlet0, dInlet),
			SupplyVoltages: axis(2, volt0, dVolt),
			ChipLoads:      axis(3, load0, dLoad),
		}
		if customBase {
			base := core.DefaultConfig()
			base.FlowMLMin, base.InletTempC, base.SupplyVoltage, base.ChipLoad = flow0, inlet0, volt0, load0
			spec.Base = &base
		}
		grid, err := spec.Grid()
		if err != nil {
			return // Chains is only defined on specs Grid() accepts
		}
		chainLen := max(len(spec.InletTempsC), 1) * max(len(spec.SupplyVoltages), 1) * max(len(spec.ChipLoads), 1)

		chains := spec.Chains()
		if want := max(len(spec.FlowsMLMin), 1); len(chains) != want {
			t.Fatalf("%d chains, want one per flow (%d)", len(chains), want)
		}
		next := 0
		for c, chain := range chains {
			pts, err := chain.Grid()
			if err != nil {
				t.Fatalf("chain %d of an accepted spec fails to expand: %v", c, err)
			}
			if len(pts) != chainLen {
				t.Fatalf("chain %d has %d points, want len(inlets)*len(volts)*len(loads) = %d", c, len(pts), chainLen)
			}
			for _, cfg := range pts {
				if next >= len(grid) {
					t.Fatalf("chains cover more than the %d grid points", len(grid))
				}
				if cfg != grid[next] {
					t.Fatalf("chain %d: point %+v, want grid[%d] = %+v", c, cfg, next, grid[next])
				}
				if cfg.FlowMLMin != pts[0].FlowMLMin {
					t.Fatalf("chain %d mixes flows: %+v vs %+v", c, cfg, pts[0])
				}
				next++
			}
		}
		if next != len(grid) {
			t.Fatalf("chains cover %d points, want all %d", next, len(grid))
		}
	})
}
