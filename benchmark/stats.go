package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// allocated returns the cumulative bytes allocated on the heap. It reads
// runtime/metrics, which does not stop the world, so it is cheap enough
// to take inside a traced cycle.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// refNominalMS is the reference task's typical time on the host the
// bounds in BENCHMARK.json were measured on: a 2-vCPU Intel Xeon virtual
// machine at 2.0 GHz.
const refNominalMS = 10.0

type refRecord struct {
	key  string
	v, w float64
	prev *refRecord
}

// refSink keeps the reference task's result live.
var refSink float64

// referenceTask times, in milliseconds, a fixed piece of work that
// shares no code with the system under test: string keys, a map, a
// stable sort and a pointer walk over 20,000 records, about 10 ms. Its
// time tracks only how fast the host runs at that moment.
func referenceTask() float64 {
	t := time.Now()
	const n = 20000
	rs := make([]*refRecord, n)
	m := make(map[string]*refRecord, n)
	x := uint64(88172645463325252)
	for i := range rs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := &refRecord{key: "db" + strconv.Itoa(i%50) + ".t" + strconv.Itoa(i), v: float64(x%1000003) / 7, w: float64(x % 97)}
		if i > 0 {
			r.prev = rs[i-1]
		}
		rs[i] = r
		m[r.key] = r
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].v != rs[j].v {
			return rs[i].v > rs[j].v
		}
		return rs[i].key < rs[j].key
	})
	var sum float64
	for _, r := range rs {
		sum += m[r.key].w * r.v
	}
	refSink = sum
	return ms(time.Since(t))
}

// normalized scales a wall time measured right after a reference task
// to that host's nominal speed. The host shares its cores with other
// machines, and identical runs minutes apart differed by up to 60%; the
// reference task slows with them, so the ratio cancels most of that.
func normalized(wallMS, refMS float64) float64 { return wallMS * refNominalMS / refMS }
