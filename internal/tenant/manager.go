package tenant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autocomp/internal/policy"
)

// Manager hosts many tenants in one process, driving each tenant's
// OODA cycles on its own goroutine. Tenants are fully isolated — own
// fleet, own RNG streams, own tracer — so concurrency between them
// needs no coordination beyond each tenant's internal lock; the manager
// only owns registration and lifecycle.
type Manager struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
	order   []string
	wg      sync.WaitGroup
	closing chan struct{}
	closed  bool
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		tenants: make(map[string]*Tenant),
		closing: make(chan struct{}),
	}
}

// Add registers a tenant under its name (created state; call Start to
// run it) and publishes it in the tenant gauges. Names are unique per
// manager; a rejected name leaves the gauges untouched.
func (m *Manager) Add(t *Tenant) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("tenant: manager is shutting down")
	}
	name := t.Name()
	if _, ok := m.tenants[name]; ok {
		return fmt.Errorf("tenant %q already exists", name)
	}
	m.tenants[name] = t
	m.order = append(m.order, name)
	mTenants.Add(1)
	mTenantState.With(name).Set(float64(t.State()))
	return nil
}

// Create builds a tenant from cfg/spec/opts and registers it.
func (m *Manager) Create(cfg Config, spec *policy.Spec, opts Options) (*Tenant, error) {
	t, err := New(cfg, spec, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Add(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Get returns the named tenant.
func (m *Manager) Get(name string) (*Tenant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	return t, ok
}

// List returns all tenants in registration order.
func (m *Manager) List() []*Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Tenant, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.tenants[name])
	}
	return out
}

// Names returns the registered tenant names, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]string(nil), m.order...)
	sort.Strings(out)
	return out
}

// Start launches the tenant's cycle loop (created → running). The loop
// runs the tenant's configured days, honouring pause/resume/stop, then
// stops the tenant and closes its Done channel.
func (m *Manager) Start(t *Tenant) error {
	t.mu.Lock()
	if t.state != StateCreated {
		st := t.state
		t.mu.Unlock()
		return fmt.Errorf("tenant %s: cannot start from %s", t.cfg.Name, st)
	}
	t.setStateLocked(StateRunning)
	t.mu.Unlock()
	m.wg.Add(1)
	go m.runLoop(t)
	return nil
}

// runLoop drives one tenant to completion: cycles while running, parks
// while paused, exits on stop/completion/failure or manager shutdown.
func (m *Manager) runLoop(t *Tenant) {
	defer m.wg.Done()
	defer close(t.done)
	for {
		t.mu.Lock()
		for t.state == StatePaused && !t.stopRq && !m.isClosing() {
			t.cond.Wait()
		}
		if t.stopRq || m.isClosing() || t.lake.Day() >= t.cfg.Days {
			t.setStateLocked(StateStopped)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		if err := t.StepCycle(); err != nil {
			t.mu.Lock()
			t.err = err
			t.setStateLocked(StateStopped)
			t.mu.Unlock()
			t.logf("tenant %s: stopped: %v", t.cfg.Name, err)
			return
		}
	}
}

// isClosing reports whether Shutdown has been requested. Safe to call
// while holding a tenant lock (it only reads the closing channel).
func (m *Manager) isClosing() bool {
	select {
	case <-m.closing:
		return true
	default:
		return false
	}
}

// Shutdown drains the manager: every tenant finishes its in-flight
// cycle and stops at the next boundary. It waits up to timeout for the
// drain, returning an error if tenants were still mid-cycle when it
// expired.
func (m *Manager) Shutdown(timeout time.Duration) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.closing)
	}
	tenants := make([]*Tenant, 0, len(m.order))
	for _, name := range m.order {
		tenants = append(tenants, m.tenants[name])
	}
	m.mu.Unlock()
	// Wake paused loops so they observe the shutdown.
	for _, t := range tenants {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("tenant: shutdown drain exceeded %v", timeout)
	}
}
