// Command benchmark measures one AutoComp workload in a fresh process
// and prints every metric as "name value unit", then one JSON result
// line. Build and run it through bench.sh:
//
//	bash benchmark/bench.sh --workload scan-100k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it drives the product's tenant and reports the
// end-to-end metrics; with --trace 1 it also rebuilds the same pipeline
// from public calls, times every layer from outside, and reports the
// per-layer metrics. It exits non-zero when a correctness check fails.
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// gomaxprocs is pinned so runs on hosts of different sizes compare.
const gomaxprocs = 2

// minCycles keeps at least ten samples above the reported p80.
const minCycles = 50

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs: the durable commit stream (the lake's seed is part of the workload)")
	fl.IntVar(&o.seconds, "seconds", 15, "least time to measure for, in seconds")
	fl.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer measurement")
	fl.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--spans <file>]")
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	w, err := loadWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	res, lines, err := measure(w, o)
	for _, m := range lines {
		fmt.Fprintf(stdout, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		res = result{Attempted: max(res.Attempted, 1), Failed: 1, Metrics: map[string]jsonMetric{}}
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "benchmark:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if err != nil {
		return 1
	}
	return 0
}

// measure runs the workload and returns the JSON result for the mode,
// plus every metric it measured for the text output.
func measure(w *Workload, o options) (result, []metric, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	// The collector runs only where the benchmark calls runtime.GC, all
	// outside the timed regions.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The reference task's first call pays for faulting in its memory;
	// keep that out of every sample.
	referenceTask()

	budget := time.Duration(o.seconds) * time.Second
	res := result{Correct: true}
	tenantLakes := func() lake { return newTenantLake(w) }

	if o.trace == 0 {
		p, err := runEpisodes(w, tenantLakes, budget, minCycles)
		if err != nil {
			return res, nil, err
		}
		e2e := endToEnd(w, p)
		res.Attempted = p.cycles
		res.Metrics = toJSON(e2e)
		return res, append(e2e, wallTimes(p)...), nil
	}

	// The untraced reference and the traced run split the budget; the
	// 1-core pass runs one episode.
	p, err := runEpisodes(w, tenantLakes, budget/2, 0)
	if err != nil {
		return res, nil, err
	}
	tr, s := newTracer(), &layerSamples{}
	tp, err := runEpisodes(w, func() lake { return newTracedLake(w, tr, s) }, budget/2, 0)
	if err != nil {
		return res, nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tp.ref.equal(p.ref); err != nil {
		return res, nil, fmt.Errorf("the traced pipeline decided differently from the tenant: %w", err)
	}
	runtime.GOMAXPROCS(1)
	s1 := &layerSamples{}
	p1, err := runEpisodes(w, func() lake { return newTracedLake(w, newTracer(), s1) }, 0, 0)
	runtime.GOMAXPROCS(gomaxprocs)
	if err != nil {
		return res, nil, fmt.Errorf("1-core traced run: %w", err)
	}
	if err := p1.ref.equal(p.ref); err != nil {
		return res, nil, fmt.Errorf("the 1-core traced pipeline decided differently from the tenant: %w", err)
	}
	c := &commitResult{}
	if w.Commits > 0 {
		if c, err = runCommitStream(w.Commits, o.seed, tr); err != nil {
			return res, nil, err
		}
	}
	if err := tr.write(o.spans); err != nil {
		return res, nil, fmt.Errorf("writing spans: %w", err)
	}
	layers := perLayer(p, tp, s, s1, c)
	res.Attempted = p.cycles + tp.cycles + p1.cycles + c.ops
	res.Metrics = toJSON(layers)
	return res, append(append(endToEnd(w, p), wallTimes(p)...), layers...), nil
}

func toJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.name] = jsonMetric{m.value, m.unit}
	}
	return out
}

// tablesPerSecond is the fleet table count summed over timed cycles,
// divided by the timed cycles' host-normalized seconds.
func tablesPerSecond(p *pass) float64 {
	var total float64
	for _, d := range p.cycleNormMS {
		total += d
	}
	return float64(p.tables) / (total / 1000)
}

// endToEnd is every end-to-end metric: what the tenant's cycles cost
// and what they did to the lake. Times are host-normalized.
func endToEnd(w *Workload, p *pass) []metric {
	n := float64(w.Cycles)
	okFrac := 1.0
	if p.ref.submitted > 0 {
		okFrac = 1 - float64(p.ref.failed)/float64(p.ref.submitted)
	}
	return []metric{
		{"setup_s", median(p.setupNormS), "s"},
		{"tables_per_s", tablesPerSecond(p), "tables/s"},
		{"cycle_ms_p50", percentile(p.cycleNormMS, 0.5), "ms"},
		{"cycle_ms_p80", percentile(p.cycleNormMS, 0.8), "ms"},
		{"alloc_mb_per_cycle", median(p.allocMB), "MB"},
		{"heap_mb", p.heapMB, "MB"},
		{"files_reduced_per_cycle", float64(p.ref.filesReduced) / n, "files"},
		{"gbhr_per_cycle", p.ref.gbhr / n, "GBHr"},
		{"jobs_ok_frac", okFrac, "ratio"},
	}
}

// wallTimes reports the unnormalized times behind the end-to-end ones,
// for the text output only.
func wallTimes(p *pass) []metric {
	return []metric{
		{"wall.setup_s", median(p.setupS), "s"},
		{"wall.cycle_ms_p50", percentile(p.cycleMS, 0.5), "ms"},
		{"wall.cycle_ms_p80", percentile(p.cycleMS, 0.8), "ms"},
		{"wall.cycles", float64(len(p.cycleMS)), "count"},
		{"wall.gomaxprocs", gomaxprocs, "count"},
	}
}

// perLayer is every per-layer metric. Times are medians over cycles,
// counts are means per cycle; a layer the workload bypasses reads 0.
func perLayer(p, tp *pass, s, s1 *layerSamples, c *commitResult) []metric {
	hitRatio := 0.0
	if s.cacheLookups > 0 {
		hitRatio = float64(s.cacheHits) / float64(s.cacheLookups)
	}
	untracedTPS := tablesPerSecond(p)
	bytesPerCommit := 0.0
	if c.versions > 0 {
		bytesPerCommit = float64(c.logBytes) / float64(c.versions)
	}
	return []metric{
		{"fleet.advance_ms", median(s.advanceMS), "ms"},
		{"fleet.advance_alloc_mb", mean(s.advanceAllocMB), "MB"},

		{"core.decide_ms_p50", percentile(s.decideMS, 0.5), "ms"},
		{"core.decide_ms_p80", percentile(s.decideMS, 0.8), "ms"},
		{"core.decide_alloc_mb", mean(s.decideAllocMB), "MB"},
		{"core.observe_calls", mean(s.observeCalls), "count"},
		{"core.observe_ms", median(s.observeMS), "ms"},
		{"core.decide_self_ms", median(s.decideSelfMS), "ms"},
		{"core.generated", mean(s.generated), "count"},
		{"core.ranked", mean(s.ranked), "count"},
		{"core.selected", mean(s.selected), "count"},

		{"changefeed.connector_ms", median(s.connectorMS), "ms"},
		{"changefeed.cache_observe_ms", median(s.cacheObserveMS), "ms"},
		{"changefeed.cache_hit_ratio", hitRatio, "ratio"},
		{"changefeed.scanned", mean(s.scanned), "count"},
		{"changefeed.dirty_tables", mean(s.dirty), "count"},
		{"changefeed.reconcile_decide_ms", median(s.reconcileMS), "ms"},

		{"decideshard.pipeline_ms_max", median(s.shardPipeMS), "ms"},
		{"decideshard.rank_ms_max", median(s.shardRankMS), "ms"},
		{"decideshard.merge_ms", median(s.mergeMS), "ms"},
		{"decideshard.critical_path_ms", median(s.criticalMS), "ms"},
		{"decideshard.imbalance", mean(s.imbalance), "ratio"},

		{"scheduler.act_ms_p50", percentile(s.actMS, 0.5), "ms"},
		{"scheduler.act_alloc_mb", mean(s.actAllocMB), "MB"},
		{"scheduler.jobs", mean(s.jobs), "count"},
		{"scheduler.skipped", mean(s.skipped), "count"},
		{"scheduler.conflicts", mean(s.conflicts), "count"},
		{"scheduler.retries", mean(s.retries), "count"},
		{"scheduler.deferred", mean(s.deferred), "count"},
		{"scheduler.max_queue_depth", mean(s.maxQueue), "count"},
		{"scheduler.runner_ms", median(s.runnerMS), "ms"},
		{"scheduler.pool_us_per_job", median(s.poolUSPerJob), "us"},
		{"scheduler.makespan_h", mean(s.makespanH), "h"},

		{"tenant.snapshot_ms", median(s.snapshotMS), "ms"},
		{"tenant.encode_ms", median(s.encodeMS), "ms"},
		{"lstlog.write_ms", median(s.writeMS), "ms"},
		{"lstlog.snapshot_mb", mean(s.snapshotMB), "MB"},
		{"lstlog.read_ms", median(s.readMS), "ms"},
		{"tenant.decode_ms", median(s.decodeMS), "ms"},
		{"fleet.restore_ms", median(s.restoreMS), "ms"},
		{"policy.compile_ms", median(s.compileMS), "ms"},
		{"tenant.restart_ms", median(p.restartMS), "ms"},

		{"lstlog.append_us_p50", percentile(c.appendUS, 0.5), "us"},
		{"lstlog.append_us_p99", percentile(c.appendUS, 0.99), "us"},
		{"lst.commit_self_us", median(c.selfUS), "us"},
		{"lst.checkpoint_ms", median(c.checkpointMS), "ms"},
		{"lstlog.replay_ms", median(c.recoverMS), "ms"},
		{"lstlog.replay_full_ms", median(c.replayFullMS), "ms"},
		{"lstlog.bytes_per_commit", bytesPerCommit, "bytes"},

		{"telemetry.render_ms", median(s.renderMS), "ms"},
		{"telemetry.render_kb", mean(s.renderKB), "KB"},

		{"trace.overhead_pct", 100 * (untracedTPS - tablesPerSecond(tp)) / untracedTPS, "%"},
		{"trace.unattributed_ms", mean(p.cycleMS) - mean(s.layersMS), "ms"},

		{"core.decide_ms_p50.gomaxprocs1", percentile(s1.decideMS, 0.5), "ms"},
		{"decideshard.critical_path_ms.gomaxprocs1", median(s1.criticalMS), "ms"},
		{"scheduler.act_ms_p50.gomaxprocs1", percentile(s1.actMS, 0.5), "ms"},
	}
}
