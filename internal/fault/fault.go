// Package fault is a zero-dependency failure-injection harness for
// chaos testing. Production code calls Inject at named points (store
// writes, training epochs, HTTP handlers); the call is a single atomic
// load unless a test has armed a hook, so the instrumented hot paths
// pay nothing in normal operation.
//
// The package is test-only by contract: nothing in the serving stack
// ever arms a hook, so a production binary can never inject a fault
// into itself. Tests arm hooks with Set/SetN, typically built from the
// Error, Latency and Panic constructors, and must Reset (or Clear) them
// before finishing — hooks are process-global.
package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// Injection points wired through the serving stack. HTTP handler points
// are derived with HTTPPoint.
const (
	// StoreWALAppend fires once per Store.Append call that reaches the
	// WAL — before the batch's first write, so an armed error leaves no
	// record of the batch on disk — and before every degraded-mode
	// re-attach probe, so an armed error keeps the store degraded until
	// cleared.
	StoreWALAppend = "store/wal-append"
	// TrainEpoch fires at the start of every training epoch.
	TrainEpoch = "core/train-epoch"
	// MigrateCopyChunk fires after every chunk a resize copies from a
	// range's source to its target; an error fails that round of the
	// range's copy.
	MigrateCopyChunk = "cluster/migrate-copy-chunk"
)

// HTTPPoint names the injection point of one HTTP endpoint handler
// (e.g. HTTPPoint("report") for /v1/report).
func HTTPPoint(endpoint string) string { return "http/" + endpoint }

// entry is one armed hook.
type entry struct {
	fn        func() error
	remaining int // shots left; < 0 means unlimited
	hits      int
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	hooks map[string]*entry
)

// Inject fires the hook armed at point, if any. With no hook armed
// anywhere it is one atomic load and a branch. A non-nil return is the
// injected failure; hooks may also sleep (latency injection) or panic.
func Inject(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	e := hooks[point]
	if e == nil || e.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if e.remaining > 0 {
		e.remaining--
	}
	e.hits++
	fn := e.fn
	mu.Unlock()
	return fn()
}

// Set arms fn at point for an unlimited number of injections.
func Set(point string, fn func() error) { SetN(point, -1, fn) }

// SetN arms fn at point for the next n injections (n < 0 = unlimited);
// after n firings the hook goes dormant but still counts as armed until
// cleared.
func SetN(point string, n int, fn func() error) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[string]*entry)
	}
	hooks[point] = &entry{fn: fn, remaining: n}
	armed.Store(true)
}

// Clear disarms point; when the last hook is cleared the fast path goes
// back to a single atomic load. Test-only by design.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, point)
	if len(hooks) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every hook. Tests that arm hooks should register it
// with t.Cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	armed.Store(false)
}

// Hits returns how many times the hook at point has fired since it was
// armed. Test-only by design: tests read it to see a fault fire.
func Hits(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if e := hooks[point]; e != nil {
		return e.hits
	}
	return 0
}

// Error returns a hook that fails with err.
func Error(err error) func() error {
	return func() error { return err }
}

// Latency returns a hook that sleeps for d and succeeds — injected slow
// I/O rather than failed I/O. Test-only by design.
func Latency(d time.Duration) func() error {
	return func() error { time.Sleep(d); return nil }
}

// Panic returns a hook that panics with msg, for exercising recovery
// paths. Test-only by design.
func Panic(msg string) func() error {
	return func() error { panic("fault: " + msg) }
}
