package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer drives every instrument kind from many
// goroutines while a scraper renders the registry continuously. Run
// under -race (the CI race job does) it pins the lock-free recording
// paths; the final counts pin that no increment is lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_requests_total", "hammered counter")
	g := r.Gauge("hammer_depth", "hammered gauge")
	h := r.Histogram("hammer_latency_seconds", "hammered histogram", ExpBuckets(0.001, 10, 4))
	cv := r.CounterVec("hammer_by_worker_total", "hammered labeled counter", "worker")

	const workers, perWorker = 16, 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Render()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := cv.With(fmt.Sprintf("w%d", w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%7) / 100)
				mine.Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter lost increments: got %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram lost observations: got %d, want %d", got, workers*perWorker)
	}
	var labeled float64
	for w := 0; w < 4; w++ {
		v, ok := r.Value("hammer_by_worker_total", fmt.Sprintf("w%d", w))
		if !ok {
			t.Fatalf("labeled series w%d missing", w)
		}
		labeled += v
	}
	if labeled != workers*perWorker {
		t.Errorf("labeled counters lost increments: got %v, want %d", labeled, workers*perWorker)
	}
	if g.Value() != perWorker-1 {
		t.Errorf("gauge final value: got %v, want %d", g.Value(), perWorker-1)
	}
}

// TestLazyCounterCreatesSeriesOnFirstUse pins LazyCounter's contract:
// a handle adds no series until its first Inc, so the exposition lists
// what With would have, and concurrent first uses share one series
// without losing an increment.
func TestLazyCounterCreatesSeriesOnFirstUse(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("lazy_jobs_total", "lazily resolved counter", "status")
	done, failed := cv.Lazy("done"), cv.Lazy("failed")
	if strings.Contains(r.Render(), "lazy_jobs_total{") {
		t.Fatalf("series exist before first use:\n%s", r.Render())
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				done.Inc()
			}
		}()
	}
	wg.Wait()
	cv.With("done").Inc()
	if v, ok := r.Value("lazy_jobs_total", "done"); !ok || v != workers*perWorker+1 {
		t.Fatalf("done = %v (ok %v), want %d", v, ok, workers*perWorker+1)
	}
	if _, ok := r.Value("lazy_jobs_total", "failed"); ok {
		t.Fatal("an unused handle created its series")
	}
	failed.Inc()
	if v, _ := r.Value("lazy_jobs_total", "failed"); v != 1 {
		t.Fatalf("failed = %v", v)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "monotonic")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter went down: %v", c.Value())
	}
}

func TestRegisterPanicsOnSchemaMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "first registration")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering clash_total as a gauge did not panic")
		}
	}()
	r.Gauge("clash_total", "conflicting registration")
}

func TestValueReadback(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", "d").Set(7)
	if v, ok := r.Value("depth"); !ok || v != 7 {
		t.Errorf("Value(depth) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	r.Histogram("lat_seconds", "h", []float64{1}).Observe(0.5)
	if _, ok := r.Value("lat_seconds"); ok {
		t.Error("Value on a histogram family reported ok")
	}
	if _, ok := r.Value("depth", "stray-label"); ok {
		t.Error("Value with wrong label arity reported ok")
	}
}

func TestDefaultRegistryIsInstrumented(t *testing.T) {
	// The instrumented packages register their families at init; importing
	// telemetry alone sees none of them, but the autocompd binary must.
	// Here we only pin that Default is stable and renderable.
	if Default() != Default() {
		t.Fatal("Default registry not a singleton")
	}
	if !strings.HasSuffix(Default().Render(), "\n") && Default().FamilyCount() > 0 {
		t.Error("rendered exposition does not end in a newline")
	}
}
