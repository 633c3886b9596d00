// Package experiments contains one driver per table and figure of the
// paper's evaluation (§2, §6, §7). Each driver sets up the simulated
// systems, runs the experiment, and returns a Result that renders the
// same rows/series the paper reports. The "Paper section → package map"
// in docs/architecture.md is the index.
//
// Absolute numbers come from a simulator, not the authors' testbed; the
// drivers are judged on shape: who wins, by roughly what factor, and
// where crossovers fall.
package experiments

import (
	"fmt"
	"sort"
)

// Result is one reproduced table/figure.
type Result interface {
	// ID is the experiment identifier ("fig6", "table1", ...).
	ID() string
	// Title describes the experiment.
	Title() string
	// Render returns the plain-text table(s) of the result.
	Render() string
}

// Spec describes a runnable experiment.
type Spec struct {
	ExpID string
	Title string
	// Run executes the experiment. quick selects a scaled-down
	// configuration with the same shape (used by unit tests and fast
	// benchmark passes); the default configuration follows the paper's
	// parameters.
	Run func(seed int64, quick bool) (Result, error)
}

// registry of all experiments, populated by the fig*.go files.
var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.ExpID]; dup {
		panic("experiments: duplicate id " + s.ExpID)
	}
	registry[s.ExpID] = s
}

// All returns the registered experiments sorted by ID.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ExpID < out[j].ExpID })
	return out
}

// Run executes one experiment by ID.
func Run(id string, seed int64, quick bool) (Result, error) {
	s, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
	}
	return s.Run(seed, quick)
}

func ids() []string {
	var out []string
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// textResult is a ready-rendered result.
type textResult struct {
	id, title, body string
}

func (r textResult) ID() string     { return r.id }
func (r textResult) Title() string  { return r.title }
func (r textResult) Render() string { return r.body }
