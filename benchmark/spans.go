package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, in microseconds since
// the traced run began. A per-call seam becomes one span per cycle that
// covers its parent's interval and carries the call count, the items
// returned and the busy time summed over calls.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent,omitempty"`
	Cycle      int     `json:"cycle"`
	Name       string  `json:"name"`
	StartUS    float64 `json:"start_us"`
	EndUS      float64 `json:"end_us"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	Calls      int64   `json:"calls,omitempty"`
	Items      int64   `json:"items,omitempty"`
	BusyUS     float64 `json:"busy_us,omitempty"`
}

// tracer keeps spans in memory; they are written once, at exit.
type tracer struct {
	epoch time.Time
	// cycle numbers the timed cycles; spans outside a cycle carry the
	// number of the last one.
	cycle int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID (parent 0 is the root).
func (t *tracer) add(parent int, name string, start, end time.Time, alloc uint64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Cycle: t.cycle, Name: name,
		StartUS: us(start.Sub(t.epoch)), EndUS: us(end.Sub(t.epoch)), AllocBytes: alloc,
	})
	return id
}

func (t *tracer) addSeam(parent int, name string, start, end time.Time, s seamTotals) int {
	id := t.add(parent, name, start, end, 0)
	sp := &t.spans[id-1]
	sp.Calls, sp.Items, sp.BusyUS = s.calls, s.items, us(s.busy)
	return id
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
