package core

import (
	"fmt"

	"autocomp/internal/compaction"
	"autocomp/internal/lst"
)

// Scheduler turns the selected candidates into an execution plan: a
// sequence of rounds; candidates within one round may run in parallel,
// rounds run strictly one after another (the act phase, §4.4). Decide
// ends at selection: Service.Act plans its rounds from the selection.
type Scheduler interface {
	Plan(selected []*Candidate) [][]*Candidate
}

// SequentialScheduler runs every work unit one after another — the
// conservative choice when compaction shares a cluster with user
// transactions (§4.4).
type SequentialScheduler struct{}

// Plan implements Scheduler.
func (SequentialScheduler) Plan(selected []*Candidate) [][]*Candidate {
	out := make([][]*Candidate, 0, len(selected))
	for _, c := range selected {
		out = append(out, []*Candidate{c})
	}
	return out
}

// TablesParallelPartitionsSequential runs candidates of distinct tables
// in parallel but keeps work units of the same table strictly sequential:
// the paper found that concurrent compactions on one table conflict even
// for disjoint partitions with Iceberg v1.2.0 (§4.4, §6), and observed
// zero cluster-side conflicts with this discipline (Table 1).
type TablesParallelPartitionsSequential struct {
	// MaxParallel caps work units per round (0 = unlimited).
	MaxParallel int
}

// Plan implements Scheduler.
func (s TablesParallelPartitionsSequential) Plan(selected []*Candidate) [][]*Candidate {
	// Queue per table, in selection (rank) order.
	order := []string{}
	queues := map[string][]*Candidate{}
	for _, c := range selected {
		key := c.Table.FullName()
		if _, ok := queues[key]; !ok {
			order = append(order, key)
		}
		queues[key] = append(queues[key], c)
	}
	var rounds [][]*Candidate
	for round := 0; ; round++ {
		var batch []*Candidate
		for _, key := range order {
			q := queues[key]
			if round < len(q) {
				batch = append(batch, q[round])
			}
		}
		if len(batch) == 0 {
			break
		}
		if s.MaxParallel > 0 {
			for len(batch) > s.MaxParallel {
				rounds = append(rounds, batch[:s.MaxParallel])
				batch = batch[s.MaxParallel:]
			}
		}
		rounds = append(rounds, batch)
	}
	return rounds
}

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
