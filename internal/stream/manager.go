package stream

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bright/internal/obs"
)

// ErrTooManySessions is the admission-control rejection (HTTP 429).
var ErrTooManySessions = errors.New("stream: session limit reached")

// ErrManagerClosed reports a request against a draining manager.
var ErrManagerClosed = errors.New("stream: manager is shut down")

// ErrUnknownSession reports a lookup miss (HTTP 404).
var ErrUnknownSession = errors.New("stream: unknown session")

// Options configures a Manager. Zero values take the defaults.
type Options struct {
	// MaxSessions caps concurrently held sessions (running or finished
	// but not yet reaped); default 8. Admission past the cap is a 429.
	MaxSessions int
	// RingSize bounds each session's frame buffer; default 256 frames.
	RingSize int
	// IdleTimeout reaps sessions without client interaction; default
	// 2 minutes.
	IdleTimeout time.Duration
	// MaxFramesCap bounds the per-session frame budget; default 100000.
	MaxFramesCap int
	// Registry receives the bright_stream_* metrics; nil creates a
	// private one (exposed via Metrics).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 8
	}
	if o.RingSize == 0 {
		o.RingSize = 256
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.MaxFramesCap == 0 {
		o.MaxFramesCap = 100000
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Stats is the manager's aggregate view, folded into /v1/stats.
type Stats struct {
	SessionsActive    int    `json:"sessions_active"`
	SessionLimit      int    `json:"session_limit"`
	SessionsStarted   uint64 `json:"sessions_started"`
	FramesEmitted     uint64 `json:"frames_emitted"`
	FramesDropped     uint64 `json:"frames_dropped"`
	AdmissionRejected uint64 `json:"admission_rejected"`
	ThermalRebuilds   uint64 `json:"thermal_rebuilds"`
	EndedCompleted    uint64 `json:"ended_completed"`
	EndedIdleTimeout  uint64 `json:"ended_idle_timeout"`
	EndedCanceled     uint64 `json:"ended_canceled"`
	EndedError        uint64 `json:"ended_error"`
}

// Manager owns every streaming session of a brightd instance: admission
// control against a global cap, an idle-timeout janitor, the
// bright_stream_* metrics and coordinated shutdown.
type Manager struct {
	opts Options

	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	// reserved counts admitted-but-still-assembling sessions so
	// concurrent Creates cannot overshoot the cap.
	reserved int
	closed   bool

	started  *obs.Counter
	frames   *obs.Counter
	dropped  *obs.Counter
	rejected *obs.Counter
	rebuilds *obs.Counter
	ended    map[string]*obs.Counter
}

// NewManager starts the janitor and registers the metrics (the only
// registration site, per the obsreg rule).
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	//lint:ignore ctxpropagate the manager is process-scoped; sessions detach from requests by design
	root, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:     opts,
		root:     root,
		cancel:   cancel,
		sessions: make(map[string]*Session),
	}
	reg := opts.Registry
	reg.GaugeFunc("bright_stream_sessions_active",
		"Streaming sessions currently held (running or awaiting reap).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sessions))
		})
	m.started = reg.Counter("bright_stream_sessions_started_total",
		"Streaming sessions admitted (created or restored).")
	m.frames = reg.Counter("bright_stream_frames_emitted_total",
		"Frames stepped and published across all sessions.")
	m.dropped = reg.Counter("bright_stream_frames_dropped_total",
		"Frames a consumer missed to drop-oldest ring backpressure.")
	m.rejected = reg.Counter("bright_stream_admission_rejected_total",
		"Session creations refused by the global cap (HTTP 429).")
	m.rebuilds = reg.Counter("bright_stream_thermal_rebuilds_total",
		"Thermal matrix reassemblies triggered by fault-driven flow changes.")
	endedHelp := "Sessions ended, by outcome."
	m.ended = map[string]*obs.Counter{
		StateCompleted:   reg.Counter("bright_stream_sessions_ended_total", endedHelp, obs.L("reason", StateCompleted)),
		StateIdleTimeout: reg.Counter("bright_stream_sessions_ended_total", endedHelp, obs.L("reason", StateIdleTimeout)),
		StateCanceled:    reg.Counter("bright_stream_sessions_ended_total", endedHelp, obs.L("reason", StateCanceled)),
		StateError:       reg.Counter("bright_stream_sessions_ended_total", endedHelp, obs.L("reason", StateError)),
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Metrics returns the registry holding the bright_stream_* series.
func (m *Manager) Metrics() *obs.Registry { return m.opts.Registry }

func newSessionID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; IDs are not
		// security-sensitive, so degrade to a constant rather than die.
		return "s-00ffffffffff"
	}
	return "s-" + hex.EncodeToString(b[:])
}

// admit reserves a session slot under the cap.
func (m *Manager) admit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrManagerClosed
	}
	if len(m.sessions)+m.reserved >= m.opts.MaxSessions {
		m.rejected.Inc()
		return ErrTooManySessions
	}
	// Reserve the slot; the engine assembles outside the lock.
	m.reserved++
	return nil
}

func (m *Manager) unreserve() {
	m.mu.Lock()
	m.reserved--
	m.mu.Unlock()
}

func (m *Manager) install(s *Session) {
	ctx, cancel := context.WithCancel(m.root)
	s.cancel = cancel
	m.mu.Lock()
	m.reserved--
	m.sessions[s.ID] = s
	m.mu.Unlock()
	m.started.Inc()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		s.run(ctx)
	}()
}

// Create admits, resolves and starts a new session. The engine assembly
// (matrix setup, preconditioners) happens synchronously so spec errors
// come back as plain 400s.
func (m *Manager) Create(spec Spec) (*Session, error) {
	res, err := spec.resolve(m.opts.MaxFramesCap)
	if err != nil {
		return nil, err
	}
	// The session checkpoints the scenario-expanded spec, not the alias.
	expanded := spec
	if err := applyScenario(&expanded); err != nil {
		return nil, err
	}
	if err := m.admit(); err != nil {
		return nil, err
	}
	eng, err := newEngine(res, 1)
	if err != nil {
		m.unreserve()
		return nil, err
	}
	s := newSession(m, newSessionID(), expanded, res, eng, 1)
	m.install(s)
	return s, nil
}

// Restore admits a new session seeded from a checkpoint: the engine is
// rebuilt at the checkpointed operating point and flow scale, the state
// vectors transplanted, and the frame sequence continues where the
// checkpoint left off.
func (m *Manager) Restore(cp *Checkpoint) (*Session, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	res, err := cp.Spec.resolve(m.opts.MaxFramesCap)
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint spec: %w", err)
	}
	if err := m.admit(); err != nil {
		return nil, err
	}
	eng, err := newEngine(res, cp.FlowScale)
	if err != nil {
		m.unreserve()
		return nil, err
	}
	if err := eng.restoreFrom(cp); err != nil {
		m.unreserve()
		return nil, err
	}
	s := newSession(m, newSessionID(), cp.Spec, res, eng, uint64(cp.Step)+1)
	m.install(s)
	return s, nil
}

// Get looks a session up by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok || s == nil {
		return nil, false
	}
	return s, true
}

// List snapshots every session's status, ordered by ID.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(ss))
	for i, s := range ss {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Cancel tears a session down (client DELETE) and removes it.
func (m *Manager) Cancel(id string) error {
	s, ok := m.Get(id)
	if !ok {
		return ErrUnknownSession
	}
	s.cancelWith(StateCanceled)
	<-s.done
	m.remove(id)
	return nil
}

func (m *Manager) remove(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// sessionEnded tallies an outcome (called exactly once per session by
// Session.finish).
func (m *Manager) sessionEnded(reason string) {
	if c, ok := m.ended[reason]; ok {
		c.Inc()
	}
}

// frameEmitted accounts one published frame (and any thermal rebuilds
// it triggered).
func (m *Manager) frameEmitted(rebuilds int) {
	m.frames.Inc()
	if rebuilds > 0 {
		m.rebuilds.Add(uint64(rebuilds))
	}
}

// framesDropped accounts frames a reader lost to ring backpressure.
func (m *Manager) framesDropped(n uint64) {
	if n > 0 {
		m.dropped.Add(n)
	}
}

// janitor reaps idle sessions: running ones are canceled with the
// idle-timeout outcome, finished ones are removed once stale.
func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := m.opts.IdleTimeout / 4
	if tick > 15*time.Second {
		tick = 15 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.root.Done():
			return
		case now := <-t.C:
			m.reapIdle(now)
		}
	}
}

func (m *Manager) reapIdle(now time.Time) {
	m.mu.Lock()
	var idle []*Session
	for _, s := range m.sessions {
		if s != nil {
			idle = append(idle, s)
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		if s.idleFor(now) < m.opts.IdleTimeout {
			continue
		}
		select {
		case <-s.done:
			// Already finished and stale: reap the entry.
			m.remove(s.ID)
		default:
			s.cancelWith(StateIdleTimeout)
		}
	}
}

// Stats snapshots the aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	active := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		SessionsActive:    active,
		SessionLimit:      m.opts.MaxSessions,
		SessionsStarted:   m.started.Value(),
		FramesEmitted:     m.frames.Value(),
		FramesDropped:     m.dropped.Value(),
		AdmissionRejected: m.rejected.Value(),
		ThermalRebuilds:   m.rebuilds.Value(),
		EndedCompleted:    m.ended[StateCompleted].Value(),
		EndedIdleTimeout:  m.ended[StateIdleTimeout].Value(),
		EndedCanceled:     m.ended[StateCanceled].Value(),
		EndedError:        m.ended[StateError].Value(),
	}
}

// Shutdown drains the manager: no new sessions are admitted, every
// session is canceled, and the call returns when all run loops and the
// janitor have exited (or the context gives up first).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("stream: shutdown: %w", ctx.Err())
	}
}
