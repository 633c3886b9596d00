package scenario_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	// Imported for their metric families, so the registry holds every
	// family the daemon serves.
	_ "autocomp/internal/autotune"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
	"autocomp/internal/telemetry"
	_ "autocomp/internal/tenant"
)

// sample is one exposition series of the process-wide registry.
type sample struct {
	kind  string // the family's TYPE: counter, gauge or histogram
	count bool   // a histogram bucket or _count series, compared exactly
	value float64
}

// scrape reads every series of the process-wide registry, keyed by its
// exposition name and labels, and counts the families.
func scrape(t *testing.T) (map[string]sample, int) {
	t.Helper()
	out := map[string]sample{}
	kind, families := "", 0
	for _, line := range strings.Split(telemetry.Default().Render(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			_, kind, _ = strings.Cut(rest, " ")
			families++
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		key := line[:i]
		name, _, _ := strings.Cut(key, "{")
		out[key] = sample{kind: kind, count: kind == "histogram" && !strings.HasSuffix(name, "_sum"), value: v}
	}
	return out, families
}

// TestScenarioMetricsDeterministic pins scenario telemetry as a
// function of the seed, over every registered family: two same-seed runs,
// with sharded decide and a burst pattern, must move every counter and
// every histogram bucket and count by the same delta, and leave every
// gauge at the same value. Float-valued deltas (counter values and
// histogram sums) may differ within 1e-9 relative, as each run adds to
// a different running total. A family that records host time would
// fail this check and must be excluded by name.
func TestScenarioMetricsDeterministic(t *testing.T) {
	ps := policy.DefaultSpec()
	ps.Execution.DecideShards = 4
	ps.Execution.DecideWorkers = 2
	spec := func() *scenario.Spec {
		return &scenario.Spec{
			Name:   "metrics-parity",
			Seed:   17,
			Days:   5,
			Fleet:  scenario.FleetSpec{InitialTables: 100, Databases: 5},
			Policy: ps.Clone(),
			Workload: []scenario.PatternSpec{
				{Kind: scenario.KindBurst, FromDay: 2, ToDay: 4, TablesFraction: 0.2, Commits: 8},
			},
		}
	}
	run := func() (before, after map[string]sample) {
		before, _ = scrape(t)
		if _, err := scenario.Run(spec()); err != nil {
			t.Fatal(err)
		}
		after, _ = scrape(t)
		return before, after
	}
	before1, after1 := run()
	before2, after2 := run()
	_, families := scrape(t)

	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for key := range after2 {
		if _, ok := after1[key]; !ok {
			t.Errorf("%s: series created only by the second run", key)
		}
	}
	moved := 0
	for key, a := range after1 {
		b, ok := after2[key]
		if !ok {
			t.Errorf("%s: series missing after the second run", key)
			continue
		}
		if a.kind == "gauge" {
			if a.value != b.value {
				t.Errorf("%s: gauge ended at %v, then at %v", key, a.value, b.value)
			}
			continue
		}
		d1, d2 := a.value-before1[key].value, b.value-before2[key].value
		if d1 != 0 {
			moved++
		}
		if a.count && d1 != d2 || !a.count && !near(d1, d2) {
			t.Errorf("%s: same-seed runs moved it by %v and %v", key, d1, d2)
		}
	}
	for _, key := range []string{"autocomp_core_cycles_total", "autocomp_decideshard_decides_total", `autocomp_scenario_cycles_total{scenario="metrics-parity"}`} {
		if after1[key].value == before1[key].value {
			t.Errorf("%s did not move; the scenario did not exercise the instrumented paths", key)
		}
	}
	t.Logf("%d families, %d series compared, %d moved by the first run", families, len(after1), moved)
}
