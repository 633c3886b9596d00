package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"autocomp/internal/core"
)

// lake is one way of running a workload's tenant: the product's own
// tenant (the end-to-end measurement) or the pipeline rebuilt from
// public calls with every layer timed (the traced measurement).
type lake interface {
	// setUp builds the tenant at day 0; a durable tenant keeps its state
	// under root.
	setUp(root string) error
	// cycle runs one daemon cycle; timed is false for warm-up cycles.
	cycle(timed bool) (cycleOut, error)
	// restart rebuilds the tenant from disk before the next cycle.
	restart() error
	// between runs after each timed cycle, outside the timed region.
	between()
}

// cycleOut is what one cycle produced.
type cycleOut struct {
	rep *core.Report
	// submitted counts the jobs handed to the execution plane; failed
	// counts those that failed or ended in a terminal conflict.
	submitted, failed int
	// tables is the fleet's table count after the cycle.
	tables int
}

// outcome is the lake outcome of one episode. Every episode of a run
// replays the same seed, so every episode's outcome must be identical.
type outcome struct {
	digests      []string
	filesReduced int
	gbhr         float64
	submitted    int
	failed       int
}

func (o *outcome) add(c cycleOut) {
	o.digests = append(o.digests, digest(c.rep))
	o.filesReduced += c.rep.FilesReduced
	o.gbhr += c.rep.ActualGBHr
	o.submitted += c.submitted
	o.failed += c.failed
}

// equal compares two outcomes exactly; GBHr sums are bit-compared
// because both episodes add the same values in the same order.
func (o *outcome) equal(p *outcome) error {
	if len(o.digests) != len(p.digests) {
		return fmt.Errorf("%d cycles against %d", len(o.digests), len(p.digests))
	}
	for i := range o.digests {
		if o.digests[i] != p.digests[i] {
			return fmt.Errorf("decision digest differs at timed cycle %d", i+1)
		}
	}
	if o.filesReduced != p.filesReduced || o.gbhr != p.gbhr || o.submitted != p.submitted || o.failed != p.failed {
		return fmt.Errorf("outcome differs: files %d/%d gbhr %v/%v jobs %d/%d failed %d/%d",
			o.filesReduced, p.filesReduced, o.gbhr, p.gbhr, o.submitted, p.submitted, o.failed, p.failed)
	}
	return nil
}

// digest fingerprints one cycle's decision: the selected candidate IDs
// in order, the files reduced, and the GBHr spent (exact bits).
func digest(rep *core.Report) string {
	h := sha256.New()
	for _, c := range rep.Decision.Selected {
		h.Write([]byte(c.ID()))
		h.Write([]byte{0})
	}
	h.Write([]byte(strconv.Itoa(rep.FilesReduced)))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatUint(math.Float64bits(rep.ActualGBHr), 16)))
	return hex.EncodeToString(h.Sum(nil))
}

// pass is what a sequence of episodes of one lake measured. Wall times
// come with their host-normalized twins (see normalized).
type pass struct {
	setupS, setupNormS   []float64
	cycleMS, cycleNormMS []float64
	restartMS            []float64
	// tables sums the fleet table count over timed cycles.
	tables int
	// allocMB is each episode's heap allocation per timed cycle.
	allocMB []float64
	// cycles counts every cycle run, warm-ups included.
	cycles int
	// ref is the first episode's outcome; every later one matched it.
	ref *outcome
	// heapMB is the live heap after a final collection, with the last
	// episode's tenant still reachable.
	heapMB float64
}

// runEpisodes runs episodes of newLake until budget has passed and at
// least minCycles timed cycles were measured (always at least one
// episode). An episode sets up a fresh tenant, runs the warm-up cycles,
// then the workload's timed cycles. The collector runs only between
// timed regions (the caller disables it otherwise), so every timed cycle
// starts from a collected heap, as a production cycle a day after the
// last one does, and no cycle pays for another's garbage. A reference
// task runs between that collection and each set-up or timed cycle,
// outside the timed region, so each time can be normalized to the host's
// speed at that moment.
func runEpisodes(w *Workload, newLake func() lake, budget time.Duration, minCycles int) (*pass, error) {
	p := &pass{}
	start := time.Now()
	var last lake
	for ep := 0; ep == 0 || time.Since(start) < budget || len(p.cycleMS) < minCycles; ep++ {
		l := newLake()
		out, err := runEpisode(w, l, p)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep+1, err)
		}
		if p.ref == nil {
			p.ref = out
		} else if err := out.equal(p.ref); err != nil {
			return nil, fmt.Errorf("episode %d diverged from episode 1: %w", ep+1, err)
		}
		last = l
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / mb
	runtime.KeepAlive(last)
	return p, nil
}

func runEpisode(w *Workload, l lake, p *pass) (*outcome, error) {
	root := ""
	if w.durable() {
		// A fresh root per episode: no episode, and no run, ever restores
		// state another one left behind.
		dir, err := os.MkdirTemp("", "autocomp-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		root = dir
	}

	runtime.GC()
	ref := referenceTask()
	t0 := time.Now()
	if err := l.setUp(root); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < warmupCycles; i++ {
		if _, err := l.cycle(false); err != nil {
			return nil, fmt.Errorf("warm-up cycle %d: %w", i+1, err)
		}
		p.cycles++
	}
	setup := time.Since(t0).Seconds()
	p.setupS = append(p.setupS, setup)
	p.setupNormS = append(p.setupNormS, normalized(setup, ref))

	out := &outcome{}
	var alloc uint64
	for i := 0; i < w.Cycles; i++ {
		if w.RestartEvery > 0 && i > 0 && i%w.RestartEvery == 0 {
			runtime.GC()
			t := time.Now()
			if err := l.restart(); err != nil {
				return nil, fmt.Errorf("restart before timed cycle %d: %w", i+1, err)
			}
			p.restartMS = append(p.restartMS, ms(time.Since(t)))
		}
		runtime.GC()
		ref := referenceTask()
		a0 := allocated()
		t := time.Now()
		c, err := l.cycle(true)
		d := time.Since(t)
		a1 := allocated()
		p.cycles++
		if err != nil {
			return nil, fmt.Errorf("timed cycle %d: %w", i+1, err)
		}
		p.cycleMS = append(p.cycleMS, ms(d))
		p.cycleNormMS = append(p.cycleNormMS, normalized(ms(d), ref))
		alloc += a1 - a0
		p.tables += c.tables
		out.add(c)
		l.between()
	}
	p.allocMB = append(p.allocMB, float64(alloc)/mb/float64(w.Cycles))
	return out, nil
}
