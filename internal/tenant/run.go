package tenant

import (
	"fmt"
	"slices"
	"sync"

	"autocomp/internal/scenario"
	"autocomp/internal/telemetry"
)

// RunStatus is a scenario run's execution state.
type RunStatus string

// Run states. Terminal states are done and failed.
const (
	RunPending RunStatus = "pending"
	RunRunning RunStatus = "running"
	RunDone    RunStatus = "done"
	RunFailed  RunStatus = "failed"
)

// Run is one scenario execution submitted to a tenant over the
// management API. The engine runs on its own goroutine with its own
// fleet.Lake and RNG streams (scenario engines never touch the
// tenant's live lake), emitting per-cycle CycleEvents on a private
// tracer that the API streams as JSONL and, on completion, producing
// the canonical trace bytes golden files are compared against.
type Run struct {
	id     string
	tenant string
	spec   *scenario.Spec
	tracer *telemetry.Tracer

	mu     sync.Mutex
	status RunStatus
	day    int
	trace  []byte
	err    error
	done   chan struct{}
}

// RunInfo is a run's JSON summary.
type RunInfo struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	Scenario string    `json:"scenario"`
	Seed     int64     `json:"seed"`
	Days     int       `json:"days"`
	Status   RunStatus `json:"status"`
	Day      int       `json:"day"`
	Error    string    `json:"error,omitempty"`
}

// ID returns the run's tenant-scoped identifier ("r1", "r2", ...).
func (r *Run) ID() string { return r.id }

// Tracer returns the run's private decision-trace stream.
func (r *Run) Tracer() *telemetry.Tracer { return r.tracer }

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Info returns the run's summary.
func (r *Run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID:       r.id,
		Tenant:   r.tenant,
		Scenario: r.spec.Name,
		Seed:     r.spec.Seed,
		Days:     r.spec.Days,
		Status:   r.status,
		Day:      r.day,
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	return info
}

// Trace returns the canonical scenario trace bytes (nil until the run
// is done) — the exact bytes golden files under examples/scenarios/
// golden/ hold, so remote clients can diff against committed goldens.
func (r *Run) Trace() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// Events returns the run's CycleEvents with tracer sequence numbers
// greater than afterSeq, oldest first — the streaming cursor for the
// JSONL events endpoint.
func (r *Run) Events(afterSeq int64) []telemetry.CycleEvent {
	all := r.tracer.Recent(r.spec.Days + 1)
	out := make([]telemetry.CycleEvent, 0, len(all))
	for _, ev := range all {
		if ev.Seq > afterSeq {
			out = append(out, ev)
		}
	}
	return out
}

// KeepRuns bounds the runs a tenant keeps for the management API: each
// submit keeps the newest KeepRuns runs, the new one included, and any
// older run still running. A forgotten id is unknown (404 over the API).
const KeepRuns = 16

// KeepNewest returns jobs without the finished ones older than the
// newest keep, in order, compacting jobs in place; done returns a job's
// completion channel. The management API bounds its scenario runs and
// tune jobs with it.
func KeepNewest[J any](jobs []J, keep int, done func(J) <-chan struct{}) []J {
	old := len(jobs) - keep
	kept := jobs[:0]
	for i, j := range jobs {
		select {
		case <-done(j):
			if i < old {
				continue // an older finished job
			}
		default:
		}
		kept = append(kept, j)
	}
	clear(jobs[len(kept):])
	return kept
}

// SubmitRun validates spec and starts it on its own goroutine,
// returning the registered run immediately. The run is independent of
// the tenant's live lake; only its telemetry carries the tenant label.
func (t *Tenant) SubmitRun(spec *scenario.Spec) (*Run, error) {
	if spec == nil {
		return nil, fmt.Errorf("tenant %s: nil scenario spec", t.cfg.Name)
	}
	if err := spec.Validate(); err != nil {
		mTenantRuns.With(t.cfg.Name, "rejected").Inc()
		return nil, err
	}
	t.mu.Lock()
	t.nextRun++
	r := &Run{
		id:     fmt.Sprintf("r%d", t.nextRun),
		tenant: t.cfg.Name,
		spec:   spec,
		tracer: telemetry.NewTracer(spec.Days + 1),
		status: RunPending,
		done:   make(chan struct{}),
	}
	t.runs = KeepNewest(append(t.runs, r), KeepRuns, (*Run).Done)
	t.mu.Unlock()
	go r.execute(t.cfg.Name)
	return r, nil
}

// Run returns the identified run, if the tenant still keeps it.
func (t *Tenant) Run(id string) (*Run, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.runs {
		if r.id == id {
			return r, true
		}
	}
	return nil, false
}

// Runs returns the runs the tenant keeps, in submission order.
func (t *Tenant) Runs() []*Run {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.runs)
}

// execute drives the scenario engine to completion, stepping day by
// day so Info reports live progress.
func (r *Run) execute(tenant string) {
	defer close(r.done)
	eng, err := scenario.NewEngineOpts(r.spec, scenario.EngineOptions{
		Tenant: tenant,
		Tracer: r.tracer,
	})
	if err != nil {
		r.finish(nil, err)
		return
	}
	r.setStatus(RunRunning)
	for day := 1; day <= r.spec.Days; day++ {
		if err := eng.StepDay(); err != nil {
			r.finish(nil, err)
			return
		}
		r.mu.Lock()
		r.day = day
		r.mu.Unlock()
	}
	r.finish(eng.Finalize().Marshal(), nil)
}

func (r *Run) setStatus(s RunStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status = s
}

func (r *Run) finish(trace []byte, err error) {
	r.mu.Lock()
	if err != nil {
		r.status = RunFailed
		r.err = err
	} else {
		r.status = RunDone
		r.trace = trace
	}
	tenant, status := r.tenant, string(r.status)
	r.mu.Unlock()
	mTenantRuns.With(tenant, status).Inc()
}
