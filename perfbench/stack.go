package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"bright/internal/cluster"
	"bright/internal/sim"
	"bright/internal/stream"
)

// stack is one in-process serving stack on loopback HTTP: engines
// behind sim.NewHandler, optionally a stream manager and a cluster
// coordinator in front.
type stack struct {
	engines []*sim.Engine
	servers []*httptest.Server // the front server last
	mgr     *stream.Manager
	coord   *cluster.Coordinator
	url     string // where clients send requests
}

// simStack is one engine with options opts behind sim.NewHandler, with
// a stream manager mounted when mgr is non-nil.
func simStack(t *tracer, opts sim.Options, mgr *stream.Manager) *stack {
	eng := sim.New(opts)
	var hopts []sim.HandlerOption
	if mgr != nil {
		hopts = append(hopts, sim.WithStreamManager(mgr))
	}
	h := sim.NewHandler(eng, hopts...)
	if t != nil {
		h = t.handler(spanHandler, h)
	}
	srv := httptest.NewServer(h)
	return &stack{engines: []*sim.Engine{eng}, servers: []*httptest.Server{srv}, mgr: mgr, url: srv.URL}
}

// clusterStack is a cluster.Coordinator in front of n engines, each
// behind its own sim.NewHandler. The coordinator knows the backends by
// the fixed names of backendNames and its client dials their loopback
// addresses, so which backend owns a key does not depend on the ports
// the servers were given.
func clusterStack(t *tracer, n int) (*stack, error) {
	st := &stack{}
	names := backendNames(n)
	addrs := map[string]string{}
	for i := 0; i < n; i++ {
		eng := sim.New(engineOptions(t))
		h := sim.NewHandler(eng)
		if t != nil {
			h = t.handler(spanHandler, h)
		}
		srv := httptest.NewServer(h)
		st.engines = append(st.engines, eng)
		st.servers = append(st.servers, srv)
		addrs[names[i]] = strings.TrimPrefix(srv.URL, "http://")
	}
	dialer := &net.Dialer{}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return dialer.DialContext(ctx, network, addrs[addr])
	}
	var rt http.RoundTripper = tp
	if t != nil {
		rt = transport{base: tp}
	}
	coord, err := cluster.NewCoordinator(cluster.Options{Backends: names, Client: &http.Client{Transport: rt}})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("building coordinator: %w", err)
	}
	h := coord.Handler()
	if t != nil {
		h = t.handler(spanCoord, h)
	}
	front := httptest.NewServer(h)
	st.coord = coord
	st.servers = append(st.servers, front)
	st.url = front.URL
	return st, nil
}

// backendNames are the addresses a coordinator of n backends knows
// them by.
func backendNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("backend-%d:80", i)
	}
	return names
}

// ringVnodes is the coordinator's default number of virtual nodes per
// backend.
const ringVnodes = 64

// ringOwner is the index of the backend in names that the coordinator's
// consistent-hash ring routes key to: FNV-64a over the key and over
// "name#v" for each backend's virtual nodes, the key going to the first
// virtual node at or clockwise after it. It mirrors the ring of
// internal/cluster so that the benchmark can spread its working set; if
// the two drift apart, the spread is merely uneven, and
// cluster.backend_share shows it.
func ringOwner(names []string, key string) int {
	hash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	type vnode struct {
		hash  uint64
		owner int
	}
	var ring []vnode
	for i, name := range names {
		for v := 0; v < ringVnodes; v++ {
			ring = append(ring, vnode{hash(fmt.Sprintf("%s#%d", name, v)), i})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	h := hash(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	return ring[i%len(ring)].owner
}

// close stops the servers front first, then the stream manager and the
// engines, waiting for each.
func (s *stack) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.mgr != nil {
		_ = s.mgr.Shutdown(ctx) // best effort: the run is over either way
	}
	for _, e := range s.engines {
		_ = e.Shutdown(ctx) // best effort: the run is over either way
	}
}

// waitIdle returns once no engine of the stack has a solve running or
// queued.
func (s *stack) waitIdle(ctx context.Context) error {
	for {
		busy := false
		for _, st := range s.stats() {
			busy = busy || st.BusyWorkers > 0 || st.QueueDepth > 0
		}
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stats returns Engine.Stats of each of the stack's engines.
func (s *stack) stats() []sim.Stats {
	out := make([]sim.Stats, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Stats()
	}
	return out
}

// newHTTPClient is the benchmark's own client, keeping one idle
// connection per concurrent client.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// call sends one JSON request and decodes the reply into out. A non-2xx
// status is an error. When op is non-nil the request carries the span
// headers, so the server side traces it.
func call(ctx context.Context, hc *http.Client, method, url string, body, out any, op *span) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op != nil {
		setHeaders(req.Header, op)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
	}
	return nil
}
