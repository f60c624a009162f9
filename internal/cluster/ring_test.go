package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	r1, err := newRing(addrs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newRing(addrs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		got1, ok := r1.lookup(key)
		if !ok {
			t.Fatalf("lookup(%q) found nothing", key)
		}
		got2, _ := r2.lookup(key)
		if got1 != got2 {
			t.Fatalf("same ring inputs disagree for %q: %s vs %s", key, got1, got2)
		}
		counts[got1]++
	}
	// With 64 vnodes per backend the load split should be within a
	// loose band of fair share (1000 each).
	for addr, c := range counts {
		if c < n/6 || c > n/2 {
			t.Fatalf("unbalanced ring: %s owns %d of %d keys (%v)", addr, c, n, counts)
		}
	}
}

func TestRingDeathMovesOnlyTheDeadShardsKeys(t *testing.T) {
	r, err := newRing([]string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before[key], _ = r.lookup(key)
	}
	if changed := r.setAlive("b:1", false); !changed {
		t.Fatal("killing b:1 reported no change")
	}
	moved := 0
	for key, owner := range before {
		now, ok := r.lookup(key)
		if !ok {
			t.Fatalf("lookup(%q) found nothing with 2 alive backends", key)
		}
		if owner == "b:1" {
			if now == "b:1" {
				t.Fatalf("key %q still routed to dead backend", key)
			}
			moved++
			continue
		}
		if now != owner {
			t.Fatalf("key %q moved from alive %s to %s when only b:1 died", key, owner, now)
		}
	}
	if moved == 0 {
		t.Fatal("b:1 owned no keys — ring construction broken")
	}
	// Rejoin restores the original ownership exactly.
	r.setAlive("b:1", true)
	for key, owner := range before {
		if now, _ := r.lookup(key); now != owner {
			t.Fatalf("key %q did not return to %s after rejoin (got %s)", key, owner, now)
		}
	}
}

func TestRingNextIsDistinctAliveBackend(t *testing.T) {
	r, err := newRing([]string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		primary, _ := r.lookup(key)
		hedge, ok := r.next(key, primary)
		if !ok {
			t.Fatalf("no hedge target for %q with 3 alive backends", key)
		}
		if hedge == primary {
			t.Fatalf("hedge target equals primary %s for %q", primary, key)
		}
	}
	// With a single alive backend there is no distinct hedge target.
	r.setAlive("b:1", false)
	r.setAlive("c:1", false)
	primary, ok := r.lookup("solo")
	if !ok || primary != "a:1" {
		t.Fatalf("lookup with one alive backend = (%s, %v)", primary, ok)
	}
	if hedge, ok := r.next("solo", primary); ok {
		t.Fatalf("hedge target %s conjured from a one-backend ring", hedge)
	}
	// All dead: nothing to route to.
	r.setAlive("a:1", false)
	if _, ok := r.lookup("solo"); ok {
		t.Fatal("lookup succeeded with every backend dead")
	}
}

func TestRingRejectsBadConfigurations(t *testing.T) {
	if _, err := newRing(nil); err == nil {
		t.Fatal("empty backend set accepted")
	}
	if _, err := newRing([]string{"a:1", "a:1"}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	if _, err := newRing([]string{""}); err == nil {
		t.Fatal("empty address accepted")
	}
}
