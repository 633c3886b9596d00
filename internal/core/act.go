package core

import (
	"fmt"

	"autocomp/internal/compaction"
	"autocomp/internal/lst"
)

// Runner executes one compaction work unit. The LST-backed runner is
// ExecutorRunner; synthetic connectors (e.g. the fleet simulator) provide
// their own (NFR3).
type Runner interface {
	Run(c *Candidate) compaction.Result
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(c *Candidate) compaction.Result

// Run implements Runner.
func (f RunnerFunc) Run(c *Candidate) compaction.Result { return f(c) }

// ExecutorRunner runs candidates through a compaction.Executor against
// the in-repo LST. Tables must be *lst.Table.
type ExecutorRunner struct {
	Exec *compaction.Executor
}

// Run implements Runner: StartCandidate, then Finish with no writes
// interleaved.
func (r ExecutorRunner) Run(c *Candidate) compaction.Result {
	op, err := r.StartCandidate(c)
	if err != nil {
		return compaction.Result{Table: c.Table.FullName(), Err: err}
	}
	return op.Finish()
}

// StartCandidate begins a two-phase compaction for c, for event-driven
// harnesses that interleave workload commits with the compaction window
// (how Table 1's cluster-side conflicts arise). The caller finishes the
// returned op at op.CommitAt().
func (r ExecutorRunner) StartCandidate(c *Candidate) (*compaction.Op, error) {
	t, ok := c.Table.(*lst.Table)
	if !ok {
		return nil, fmt.Errorf("core: ExecutorRunner requires *lst.Table, got %T", c.Table)
	}
	switch c.Scope {
	case ScopePartition:
		return r.Exec.Start(t, compaction.PartitionScope, c.Partition), nil
	case ScopeSnapshot:
		return r.Exec.StartFiles(t, c.Files()), nil
	default:
		return r.Exec.Start(t, compaction.TableScope, ""), nil
	}
}
