// Package leakcheck is the runtime twin of the goroutinelife analyzer:
// a goleak-style goroutine-neutrality harness for package TestMains.
// After a package's tests pass, it snapshots every live goroutine via
// runtime.Stack, subtracts an allowlist (test machinery, stdlib signal
// pollers, os/exec's context watcher), and fails the run if
// anything else is still alive once a retry window — goroutines that
// are merely winding down deserve a moment — has elapsed. The serving
// packages (internal/sim, internal/stream, internal/cluster) wire it
// into TestMain, so every `make race-all` run also proves the engine
// workers, session run loops, and coordinator probes all died with
// their owners.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// defaultWindow is how long Main lets residual goroutines wind down
// before calling them leaks. Session run loops and engine workers exit
// promptly after Shutdown; five seconds is far past honest cleanup.
const defaultWindow = 5 * time.Second

// defaultAllow lists stack substrings of goroutines that are allowed
// to outlive a test run.
var defaultAllow = []string{
	// Test machinery: the main test goroutine and runners mid-teardown.
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"testing.runTests(",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	// Stdlib pollers that live for the process by design.
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
	// os/exec's context watcher unwinds asynchronously after Wait
	// (the cluster e2e test runs real brightd processes).
	"os/exec.(*Cmd).watchCtx",
}

// stacks returns one formatted stack per live goroutine; the first
// entry is the goroutine running the check itself.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// leaked returns the stacks of goroutines not covered by the
// allowlists.
func leaked(extraAllow []string) []string {
	var out []string
	for i, g := range stacks() {
		if i == 0 {
			continue // the goroutine running this check
		}
		allowed := false
		for _, a := range defaultAllow {
			if strings.Contains(g, a) {
				allowed = true
				break
			}
		}
		for _, a := range extraAllow {
			if !allowed && strings.Contains(g, a) {
				allowed = true
			}
		}
		if !allowed {
			out = append(out, g)
		}
	}
	return out
}

// Check polls until no non-allowlisted goroutines remain or the window
// expires, then reports the survivors. extraAllow entries are matched
// as stack substrings, like the built-in allowlist.
func Check(window time.Duration, extraAllow ...string) error {
	deadline := time.Now().Add(window)
	delay := 10 * time.Millisecond
	for {
		l := leaked(extraAllow)
		if len(l) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutine(s) still alive %v after the tests finished:\n\n%s",
				len(l), window, strings.Join(l, "\n\n"))
		}
		time.Sleep(delay)
		if delay < 200*time.Millisecond {
			delay *= 2
		}
	}
}

// Main runs a package's tests and then enforces goroutine-neutrality:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// A leak turns a passing run into a failing one; an already-failing
// run keeps its own exit code so the real failure stays on top.
func Main(m *testing.M, extraAllow ...string) {
	code := m.Run()
	if code == 0 {
		if err := Check(defaultWindow, extraAllow...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
