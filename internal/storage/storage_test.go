package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"autocomp/internal/sim"
)

func newTestNN() (*NameNode, *sim.Clock) {
	clock := sim.NewClock()
	return NewNameNode(DefaultConfig(), clock, sim.NewRNG(1)), clock
}

func TestCreateStatDelete(t *testing.T) {
	nn, _ := newTestNN()
	if err := nn.Create("/db1/t1/f1.parquet", 100*MB); err != nil {
		t.Fatal(err)
	}
	o, err := nn.Stat("/db1/t1/f1.parquet")
	if err != nil {
		t.Fatal(err)
	}
	if o.Size != 100*MB {
		t.Fatalf("size = %d", o.Size)
	}
	if err := nn.Delete("/db1/t1/f1.parquet"); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Stat("/db1/t1/f1.parquet"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat after delete: %v", err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	nn, _ := newTestNN()
	if err := nn.Create("/db/t/f", 1); err != nil {
		t.Fatal(err)
	}
	if err := nn.Create("/db/t/f", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestDeleteMissing(t *testing.T) {
	nn, _ := newTestNN()
	if err := nn.Delete("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestListPrefixSorted(t *testing.T) {
	nn, _ := newTestNN()
	for _, p := range []string{"/db/t/b", "/db/t/a", "/db/u/c", "/db/t/c"} {
		if err := nn.Create(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := nn.List("/db/t/")
	if len(got) != 3 {
		t.Fatalf("list len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Path >= got[i].Path {
			t.Fatalf("list not sorted: %v", got)
		}
	}
}

func TestQuotaEnforcement(t *testing.T) {
	nn, _ := newTestNN()
	nn.SetQuota("db1", 2)
	if err := nn.Create("/db1/t/f1", 1); err != nil {
		t.Fatal(err)
	}
	if err := nn.Create("/db1/t/f2", 1); err != nil {
		t.Fatal(err)
	}
	if err := nn.Create("/db1/t/f3", 1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("expected quota error, got %v", err)
	}
	// Other namespaces are unaffected.
	if err := nn.Create("/db2/t/f1", 1); err != nil {
		t.Fatal(err)
	}
	q, ok := nn.QuotaFor("db1")
	if !ok || q.Used != 2 || q.Utilization() != 1.0 {
		t.Fatalf("quota state = %+v ok=%v", q, ok)
	}
}

func TestQuotaReleasedOnDelete(t *testing.T) {
	nn, _ := newTestNN()
	nn.SetQuota("db", 1)
	if err := nn.Create("/db/t/f", 1); err != nil {
		t.Fatal(err)
	}
	if err := nn.Delete("/db/t/f"); err != nil {
		t.Fatal(err)
	}
	if err := nn.Create("/db/t/g", 1); err != nil {
		t.Fatalf("create after delete under quota: %v", err)
	}
}

func TestSetQuotaCountsExisting(t *testing.T) {
	nn, _ := newTestNN()
	for i := 0; i < 5; i++ {
		if err := nn.Create("/db/t/f"+string(rune('a'+i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	nn.SetQuota("db", 10)
	q, _ := nn.QuotaFor("db")
	if q.Used != 5 {
		t.Fatalf("Used = %d, want 5", q.Used)
	}
}

func TestOpenUnloadedLatency(t *testing.T) {
	nn, _ := newTestNN()
	if err := nn.Create("/db/t/f", 1); err != nil {
		t.Fatal(err)
	}
	lat, err := nn.Open("/db/t/f")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig().BaseOpenLatency
	if lat < base || lat > 2*base {
		t.Fatalf("unloaded latency = %v, base %v", lat, base)
	}
}

func TestOpenLatencyGrowsWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityRPS = 100
	cfg.TimeoutUtilization = 1e9 // disable timeouts for this test
	clock := sim.NewClock()
	nn := NewNameNode(cfg, clock, sim.NewRNG(1))
	if err := nn.Create("/db/t/f", 1); err != nil {
		t.Fatal(err)
	}
	cold, _ := nn.Open("/db/t/f")
	// Generate heavy load within the window.
	for i := 0; i < 20000; i++ {
		nn.Open("/db/t/f")
	}
	hot, _ := nn.Open("/db/t/f")
	if hot <= cold {
		t.Fatalf("latency did not grow under load: cold=%v hot=%v", cold, hot)
	}
}

func TestOpenTimeoutsUnderOverload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityRPS = 10
	clock := sim.NewClock()
	nn := NewNameNode(cfg, clock, sim.NewRNG(1))
	if err := nn.Create("/db/t/f", 1); err != nil {
		t.Fatal(err)
	}
	timeouts := 0
	for i := 0; i < 5000; i++ {
		if _, err := nn.Open("/db/t/f"); errors.Is(err, ErrTimeout) {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatal("no timeouts under extreme overload")
	}
	if nn.Counters().Timeouts != int64(timeouts) {
		t.Fatalf("timeout counter mismatch: %d vs %d", nn.Counters().Timeouts, timeouts)
	}
}

func TestObserverNameNodesAddCapacity(t *testing.T) {
	mk := func(observers int) float64 {
		cfg := DefaultConfig()
		cfg.CapacityRPS = 100
		cfg.ObserverNameNodes = observers
		clock := sim.NewClock()
		nn := NewNameNode(cfg, clock, sim.NewRNG(1))
		nn.Create("/db/t/f", 1)
		for i := 0; i < 3000; i++ {
			nn.Open("/db/t/f")
		}
		return nn.Utilization()
	}
	if u0, u3 := mk(0), mk(3); u3 >= u0 {
		t.Fatalf("observers did not reduce utilization: %v vs %v", u0, u3)
	}
}

func TestLoadWindowEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CapacityRPS = 100
	cfg.LoadWindow = time.Minute
	clock := sim.NewClock()
	nn := NewNameNode(cfg, clock, sim.NewRNG(1))
	nn.Create("/db/t/f", 1)
	for i := 0; i < 10000; i++ {
		nn.Open("/db/t/f")
	}
	loaded := nn.Utilization()
	clock.Advance(10 * time.Minute)
	cooled := nn.Utilization()
	if cooled >= loaded || cooled > 0.01 {
		t.Fatalf("load did not decay: loaded=%v cooled=%v", loaded, cooled)
	}
}

func TestCounters(t *testing.T) {
	nn, _ := newTestNN()
	nn.Create("/db/t/f", 1)
	nn.Stat("/db/t/f")
	nn.List("/db/")
	nn.Open("/db/t/f")
	nn.Delete("/db/t/f")
	c := nn.Counters()
	if c.Creates != 1 || c.Stats != 1 || c.Lists != 1 || c.Opens != 1 || c.Deletes != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestSizeHistogram(t *testing.T) {
	nn, _ := newTestNN()
	nn.Create("/db/t/small1", 10*MB)
	nn.Create("/db/t/small2", 100*MB)
	nn.Create("/db/t/mid", 300*MB)
	nn.Create("/db/t/big", 600*MB)
	nn.Create("/other/t/x", 1*MB)
	h := nn.SizeHistogram("/db/", []int64{128 * MB, 512 * MB})
	if h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	all := nn.SizeHistogram("", []int64{128 * MB, 512 * MB})
	if all[0] != 3 {
		t.Fatalf("all histogram = %v", all)
	}
}

func TestNamespaceOf(t *testing.T) {
	cases := map[string]string{
		"/db1/t/f":  "db1",
		"db2/t":     "db2",
		"/solo":     "solo",
		"/a/b/c/d":  "a",
		"/db1/t/f2": "db1",
	}
	for in, want := range cases {
		if got := namespaceOf(in); got != want {
			t.Fatalf("namespaceOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTotalBytes(t *testing.T) {
	nn, _ := newTestNN()
	nn.Create("/db/t/a", 5)
	nn.Create("/db/t/b", 7)
	if got := nn.TotalBytes(); got != 12 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// Property: histogram bucket counts always sum to the number of objects
// under the prefix, for any sizes.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		clock := sim.NewClock()
		nn := NewNameNode(DefaultConfig(), clock, sim.NewRNG(1))
		for i, s := range sizes {
			if err := nn.Create("/db/t/f"+itoa(i), int64(s)); err != nil {
				return false
			}
		}
		h := nn.SizeHistogram("/db/", []int64{1000, 1_000_000, 1_000_000_000})
		var total int64
		for _, c := range h {
			total += c
		}
		return total == int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestLoadTrackerRate(t *testing.T) {
	lt := newLoadTracker(10 * time.Second)
	lt.add(0, 100)
	if r := lt.rate(0); r != 10 {
		t.Fatalf("rate = %v, want 10", r)
	}
	// After the window passes, rate decays to zero.
	if r := lt.rate(20 * time.Second); r != 0 {
		t.Fatalf("rate after window = %v, want 0", r)
	}
}
