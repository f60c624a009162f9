// Package cluster implements the brightd scale-out tier: a coordinator
// that consistent-hashes work across a fleet of single-node brightd
// backends (shards), preserving the per-node caches' locality that the
// serving stack's memoization and warm-start chaining depend on.
//
// The coordinator owns no solver state of its own. It routes
// /v1/evaluate by the configuration's canonical key, partitions
// /v1/sweep into warm-start chains (core.Config.ChainKey) placed whole
// on one shard each, hedges slow shards, health-checks dead ones out of
// the ring, and hands a rejoining shard its last-known cache snapshot so
// it comes back warm instead of cold.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ringVnodes is the number of virtual nodes each backend contributes
// to the ring. 64 keeps the per-backend load imbalance in the few-
// percent range for small fleets while the ring stays tiny (a few KB).
const ringVnodes = 64

// vnode is one virtual point on the ring.
type vnode struct {
	hash uint64
	addr string
}

// ring is a consistent-hash ring over the backend set with liveness
// gating: lookups walk clockwise from the key's hash and skip dead
// backends, so a backend's death reassigns exactly its own hash ranges
// (to the next alive backend clockwise) and every other key keeps its
// shard — the property that keeps the fleet's caches warm across
// membership churn.
type ring struct {
	mu     sync.RWMutex
	vnodes []vnode
	addrs  []string // declaration order, for stable iteration
	alive  map[string]bool
}

// hashKey is FNV-64a: cheap, deterministic across processes, and well
// spread for the short structured keys (canonical/chain keys, backend
// addresses) it is fed.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	if _, err := h.Write([]byte(s)); err != nil {
		// hash.Hash documents Write as infallible; this is unreachable.
		panic("cluster: fnv write: " + err.Error())
	}
	return h.Sum64()
}

// newRing builds the ring. Backends start alive; health checking flips
// them via setAlive.
func newRing(addrs []string) (*ring, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	r := &ring{alive: make(map[string]bool, len(addrs))}
	for _, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty backend address")
		}
		if _, dup := r.alive[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", addr)
		}
		r.alive[addr] = true
		r.addrs = append(r.addrs, addr)
		for v := 0; v < ringVnodes; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash: hashKey(fmt.Sprintf("%s#%d", addr, v)),
				addr: addr,
			})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r, nil
}

// lookup returns the alive backend owning key: the first alive vnode at
// or clockwise after the key's hash. ok is false when every backend is
// dead.
func (r *ring) lookup(key string) (addr string, ok bool) {
	return r.walk(key, "")
}

// next returns the first alive backend clockwise after key's position
// that is not skip — the hedge/failover target, guaranteed distinct
// from the primary. ok is false when no such backend exists (single
// alive backend, or none).
func (r *ring) next(key, skip string) (addr string, ok bool) {
	return r.walk(key, skip)
}

// walk is the clockwise scan shared by lookup and next.
func (r *ring) walk(key, skip string) (string, bool) {
	h := hashKey(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.vnodes)
	start := sort.Search(n, func(i int) bool { return r.vnodes[i].hash >= h })
	for i := 0; i < n; i++ {
		vn := r.vnodes[(start+i)%n]
		if vn.addr != skip && r.alive[vn.addr] {
			return vn.addr, true
		}
	}
	return "", false
}

// setAlive flips a backend's liveness, reporting whether the state
// changed (so callers can count transitions, not checks).
func (r *ring) setAlive(addr string, alive bool) (changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	was, known := r.alive[addr]
	if !known || was == alive {
		return false
	}
	r.alive[addr] = alive
	return true
}

// isAlive reports a backend's current liveness.
func (r *ring) isAlive(addr string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[addr]
}

// backends returns every backend address in declaration order.
func (r *ring) backends() []string {
	return append([]string(nil), r.addrs...)
}

// aliveCount returns the number of alive backends.
func (r *ring) aliveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, a := range r.alive {
		if a {
			n++
		}
	}
	return n
}
