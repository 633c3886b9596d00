// Command benchrunner regenerates the paper's tables and figures from the
// reproduction experiments. Each experiment prints the same rows/series
// the paper reports (see the "Paper section → package map" in
// docs/architecture.md).
//
// Usage:
//
//	benchrunner -exp fig6            # one experiment at paper scale
//	benchrunner -exp all -quick      # everything, scaled down
//	benchrunner -exp all -quick -json BENCH_autocomp.json
//	benchrunner -check BENCH_autocomp.json   # validate a report's schema
//	benchrunner -list
//
// With -json, a machine-readable bench trajectory is written alongside
// the rendered tables: per-experiment wall time, allocation footprint,
// and pipeline throughput sampled from the runtime telemetry registry.
// The committed BENCH_autocomp.json is regenerated with
// `benchrunner -exp all -quick -json BENCH_autocomp.json`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"autocomp/internal/experiments"
	"autocomp/internal/telemetry"
)

// benchExperiment is one experiment's row in the -json trajectory.
type benchExperiment struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	DurationMS float64 `json:"duration_ms"`
	// OutputBytes is the size of the rendered tables/series — a cheap
	// proxy for how much of the paper's reporting surface the experiment
	// regenerates.
	OutputBytes int `json:"output_bytes"`
	// AllocMB is the heap allocated while the experiment ran (delta of
	// runtime.MemStats.TotalAlloc).
	AllocMB float64 `json:"alloc_mb"`
	// Cycles is how many OODA cycles the experiment drove through the
	// decision pipeline (delta of autocomp_core_cycles_total), and
	// CyclesPerSec the resulting decision throughput; both are zero for
	// experiments that exercise the storage/engine layers directly.
	Cycles       float64 `json:"cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// Details carries experiment-specific structured results for
	// experiments that expose them (e.g. the shard sweep's measured and
	// projected decide speedups per shard count).
	Details any `json:"details,omitempty"`
}

// benchReport is the top-level -json payload.
type benchReport struct {
	GoVersion   string            `json:"go_version"`
	Seed        int64             `json:"seed"`
	Quick       bool              `json:"quick"`
	Experiments []benchExperiment `json:"experiments"`
	TotalMS     float64           `json:"total_ms"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1, fig2, fig3, fig6, fig7, fig8, fig9, fig10a, fig10b, fig10c, fig11a, fig11b, table1, est, incr, maint, persist, sched, shard, tune) or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "run scaled-down configurations")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "also write a machine-readable bench report to this file")
	check := flag.String("check", "", "validate a previously written -json report against the schema and exit (non-zero on empty or malformed reports)")
	flag.Parse()

	if *check != "" {
		if err := checkReport(*check); err != nil {
			log.SetFlags(0)
			log.Fatalf("benchrunner: %s: %v", *check, err)
		}
		return
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-8s %s\n", s.ExpID, s.Title)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, s := range experiments.All() {
			ids = append(ids, s.ExpID)
		}
	}
	report := benchReport{GoVersion: runtime.Version(), Seed: *seed, Quick: *quick}
	for _, id := range ids {
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cycles0, _ := telemetry.Default().Value("autocomp_core_cycles_total")
		start := time.Now()
		res, err := experiments.Run(id, *seed, *quick)
		if err != nil {
			log.SetFlags(0)
			log.Printf("experiment %s failed: %v", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		cycles1, _ := telemetry.Default().Value("autocomp_core_cycles_total")
		body := res.Render()
		fmt.Printf("==== %s ====\n%s\n", res.Title(), body)
		fmt.Printf("(%s completed in %v)\n\n", id, elapsed.Round(time.Millisecond))

		be := benchExperiment{
			ID:          id,
			Title:       res.Title(),
			DurationMS:  float64(elapsed) / float64(time.Millisecond),
			OutputBytes: len(body),
			AllocMB:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			Cycles:      cycles1 - cycles0,
		}
		if be.Cycles > 0 && elapsed > 0 {
			be.CyclesPerSec = be.Cycles / elapsed.Seconds()
		}
		if d, ok := res.(interface{ Details() any }); ok {
			be.Details = d.Details()
		}
		report.Experiments = append(report.Experiments, be)
		report.TotalMS += be.DurationMS
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bench report: %s (%d experiments, %.0f ms total)\n",
			*jsonOut, len(report.Experiments), report.TotalMS)
	}
}

// checkReport validates a -json bench report: it must parse into the
// schema, carry at least one experiment, and every experiment must have
// an identity and a positive wall time and output size. CI runs this on
// both the committed trajectory and each freshly generated report, so
// an empty or truncated BENCH_*.json fails the bench job instead of
// silently shipping.
func checkReport(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("report is empty")
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("malformed report: %v", err)
	}
	if rep.GoVersion == "" {
		return fmt.Errorf("missing go_version")
	}
	if len(rep.Experiments) == 0 {
		return fmt.Errorf("no experiments in report")
	}
	if rep.TotalMS <= 0 {
		return fmt.Errorf("total_ms = %v, want > 0", rep.TotalMS)
	}
	seen := make(map[string]bool, len(rep.Experiments))
	for i, e := range rep.Experiments {
		switch {
		case e.ID == "":
			return fmt.Errorf("experiment %d: missing id", i)
		case seen[e.ID]:
			return fmt.Errorf("experiment %d: duplicate id %q", i, e.ID)
		case e.Title == "":
			return fmt.Errorf("experiment %s: missing title", e.ID)
		case e.DurationMS <= 0:
			return fmt.Errorf("experiment %s: duration_ms = %v, want > 0", e.ID, e.DurationMS)
		case e.OutputBytes <= 0:
			return fmt.Errorf("experiment %s: output_bytes = %d, want > 0 (empty render)", e.ID, e.OutputBytes)
		case e.Cycles < 0:
			return fmt.Errorf("experiment %s: cycles = %v, want >= 0", e.ID, e.Cycles)
		}
		seen[e.ID] = true
	}
	fmt.Printf("bench report OK: %d experiments, %.0f ms total (%s)\n",
		len(rep.Experiments), rep.TotalMS, rep.GoVersion)
	return nil
}
