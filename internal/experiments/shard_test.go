package experiments

import "testing"

func TestShardShape(t *testing.T) {
	res := runQuick(t, "shard").(ShardResult)
	if res.Tables != 100_000 {
		t.Fatalf("tables = %d, want 100000 (the sweep stays at paper scale)", res.Tables)
	}
	if res.SerialMS <= 0 {
		t.Fatalf("serial baseline = %v ms", res.SerialMS)
	}
	wantShards := []int{1, 2, 4, 16}
	if len(res.Samples) != len(wantShards) {
		t.Fatalf("samples = %d, want %d", len(res.Samples), len(wantShards))
	}
	for i, s := range res.Samples {
		if s.Shards != wantShards[i] {
			t.Fatalf("sample %d: shards = %d, want %d", i, s.Shards, wantShards[i])
		}
		// Parity is the acceptance criterion, not a best effort: any
		// shard count deciding differently from serial is a failure.
		if !s.ParityOK {
			t.Fatalf("shards=%d: decision fingerprint diverged from serial", s.Shards)
		}
		if s.DecideMS <= 0 || s.CriticalPathMS <= 0 {
			t.Fatalf("shards=%d: non-positive timings: %+v", s.Shards, s)
		}
		// The critical path can never exceed the measured wall time:
		// it is the slowest shard chain plus the merge, a subset of
		// the work the wall clock covers, at every shard count.
		if s.CriticalPathMS > s.DecideMS {
			t.Fatalf("shards=%d: critical path %.2f ms > wall %.2f ms",
				s.Shards, s.CriticalPathMS, s.DecideMS)
		}
	}
	if res.Details() == nil {
		t.Fatal("no details for the bench trajectory")
	}
}
