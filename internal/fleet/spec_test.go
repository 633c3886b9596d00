package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"autocomp/internal/policy"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
)

// TestSerialCycleRecordParity pins the one-record contract on the serial
// act phase: a spec without an execution section still returns outcome
// counts covering every result, no worker-pool fields, and the exact
// event its tracer stamped.
func TestSerialCycleRecordParity(t *testing.T) {
	f := schedFleet(5)
	spec := policy.DefaultSpec()
	spec.Execution = nil
	tracer := telemetry.NewTracer(4)
	svc, err := f.ServiceFromSpec(spec, DefaultModel(512*storage.MB), SpecRunOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		f.AdvanceDay()
		cyc, err := svc.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		st := cyc.Stats
		if got := st.Done + st.Skipped + st.Conflicted + st.Failed; got != len(cyc.Report.Results) {
			t.Fatalf("day %d: outcome counts sum to %d, report has %d results", d, got, len(cyc.Report.Results))
		}
		if st.Workers != 0 || st.SpentGBHr != nil {
			t.Fatalf("day %d: serial stats carry pool fields: %+v", d, st)
		}
		b, err := json.Marshal(cyc.Event)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"workers"`)) {
			t.Fatalf("day %d: serial event JSON has a workers key: %s", d, b)
		}
		last, ok := tracer.Last()
		if !ok || last.Seq != int64(d) || !reflect.DeepEqual(last, cyc.Event) {
			t.Fatalf("day %d: returned event differs from the tracer's\nreturned: %+v\ntracer:   %+v", d, cyc.Event, last)
		}
	}
}

// TestSummaryMatchesAggregates pins the one-pass fleet summary to the
// per-quantity aggregates it replaces.
func TestSummaryMatchesAggregates(t *testing.T) {
	f := schedFleet(9)
	want := telemetry.FleetTrace{
		Tables:      f.TableCount(),
		Files:       f.TotalFiles(),
		MetaObjects: f.TotalMetadataObjects(),
		TinyFrac:    f.TinyFileFraction(),
	}
	if got := f.Summary(); got != want {
		t.Fatalf("Summary() = %+v, want %+v", got, want)
	}
}

// TestStubEnvMatchesValidationEnv pins the CLI validator's environment
// (`lakectl policy validate`, the benchmark's spec check) to the one
// tenants and the scenario engine validate against, so a spec one
// accepts the other cannot reject.
func TestStubEnvMatchesValidationEnv(t *testing.T) {
	if stub, lake := policy.StubEnv(), ValidationEnv(); !reflect.DeepEqual(stub, lake) {
		t.Fatalf("policy.StubEnv() = %+v, fleet.ValidationEnv() = %+v", stub, lake)
	}
}
