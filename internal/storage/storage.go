// Package storage simulates the distributed file system underpinning the
// data lake (HDFS in the paper's LinkedIn deployment, ADLS in its cloud
// experiments).
//
// The simulator models exactly the aspects of the storage layer that the
// paper identifies as suffering from small-file proliferation (§1, §2, §7):
//
//   - the NameNode tracks every filesystem object, so object count is a
//     scarce resource, with per-namespace (per-database) quotas;
//   - every file read issues an open() RPC to the NameNode; RPC pressure
//     grows with file count, inflates open latency, and beyond a threshold
//     causes read timeouts and thundering-herd retries;
//   - capacity can be extended with read-only observer NameNodes and by
//     federating the namespace.
//
// All state mutations go through a mutex so the simulator can be shared by
// concurrently executing simulated clusters.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"autocomp/internal/sim"
)

// Byte size units.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// Errors returned by NameNode operations.
var (
	ErrNotFound      = errors.New("storage: object not found")
	ErrExists        = errors.New("storage: object already exists")
	ErrQuotaExceeded = errors.New("storage: namespace quota exceeded")
	ErrTimeout       = errors.New("storage: read timeout (NameNode overloaded)")
)

// Config parameterizes the simulated file system.
type Config struct {
	// BlockSize is the HDFS block size; the paper's deployments use
	// 128 MB blocks and a 512 MB target file size (4 blocks).
	BlockSize int64
	// BaseOpenLatency is the open() RPC latency of an unloaded NameNode.
	BaseOpenLatency time.Duration
	// CapacityRPS is the sustainable NameNode RPC rate. Load above this
	// rate inflates latency and eventually causes timeouts.
	CapacityRPS float64
	// ObserverNameNodes are read-only replicas; each adds CapacityRPS
	// worth of read capacity (opens and stats only).
	ObserverNameNodes int
	// TimeoutUtilization is the utilization fraction beyond which open()
	// calls may time out (the paper's HDFS read timeouts, §7).
	TimeoutUtilization float64
	// LoadWindow is the rolling window over which RPC rate is measured.
	LoadWindow time.Duration
	// ObjectsPerNameNode is the object count one NameNode can manage
	// before the deployment must federate (§2).
	ObjectsPerNameNode int64
}

// DefaultConfig mirrors the paper's deployment shape.
func DefaultConfig() Config {
	return Config{
		BlockSize:          128 * MB,
		BaseOpenLatency:    2 * time.Millisecond,
		CapacityRPS:        2000,
		ObserverNameNodes:  0,
		TimeoutUtilization: 0.95,
		LoadWindow:         time.Minute,
		ObjectsPerNameNode: 100_000_000,
	}
}

// Object is a filesystem entry (always a file in this simulator; directory
// structure is implicit in paths).
type Object struct {
	Path    string
	Size    int64
	Created time.Duration
}

// Counters is a snapshot of cumulative RPC counts. Experiments sample the
// counters and difference successive snapshots to build time series (e.g.
// Figure 11b's open() calls per month).
type Counters struct {
	Opens    int64
	Creates  int64
	Deletes  int64
	Lists    int64
	Stats    int64
	Timeouts int64
	Retries  int64
}

// Total returns the total RPC count across operations.
func (c Counters) Total() int64 {
	return c.Opens + c.Creates + c.Deletes + c.Lists + c.Stats
}

// Quota limits the number of namespace objects a database (tenant) may
// hold, mirroring HDFS namespace quotas (§7: w1 scales with Used/Total).
type Quota struct {
	Namespace string
	Max       int64
	Used      int64
}

// Utilization returns Used/Max, or 0 when no quota is set.
func (q Quota) Utilization() float64 {
	if q.Max <= 0 {
		return 0
	}
	return float64(q.Used) / float64(q.Max)
}

// NameNode is the simulated metadata server plus flat object store.
type NameNode struct {
	mu      sync.Mutex
	cfg     Config
	clock   *sim.Clock
	rng     *sim.RNG
	objects map[string]*Object
	quotas  map[string]*Quota
	ctr     Counters
	load    *loadTracker
}

// NewNameNode returns a NameNode simulator using cfg, driven by clock, with
// randomness (timeout draws) from rng.
func NewNameNode(cfg Config, clock *sim.Clock, rng *sim.RNG) *NameNode {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 128 * MB
	}
	if cfg.LoadWindow <= 0 {
		cfg.LoadWindow = time.Minute
	}
	if cfg.CapacityRPS <= 0 {
		cfg.CapacityRPS = 2000
	}
	if cfg.TimeoutUtilization <= 0 {
		cfg.TimeoutUtilization = 0.95
	}
	if cfg.ObjectsPerNameNode <= 0 {
		cfg.ObjectsPerNameNode = 100_000_000
	}
	return &NameNode{
		cfg:     cfg,
		clock:   clock,
		rng:     rng,
		objects: make(map[string]*Object),
		quotas:  make(map[string]*Quota),
		load:    newLoadTracker(cfg.LoadWindow),
	}
}

// Config returns the configuration the NameNode was built with.
func (n *NameNode) Config() Config { return n.cfg }

// namespaceOf extracts the quota namespace (the first path component,
// i.e. the database) from an absolute path like /db/table/part/file.
func namespaceOf(path string) string {
	p := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// SetQuota installs (or replaces) the object quota for a namespace. The
// used count is recomputed from current objects.
func (n *NameNode) SetQuota(namespace string, maxObjects int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	used := int64(0)
	prefix := "/" + namespace + "/"
	for p := range n.objects {
		if strings.HasPrefix(p, prefix) {
			used++
		}
	}
	n.quotas[namespace] = &Quota{Namespace: namespace, Max: maxObjects, Used: used}
}

// QuotaFor returns the quota state of a namespace; ok is false when no
// quota has been installed.
func (n *NameNode) QuotaFor(namespace string) (Quota, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q, ok := n.quotas[namespace]
	if !ok {
		return Quota{}, false
	}
	return *q, true
}

// Create adds a file object. It returns ErrExists for duplicate paths and
// ErrQuotaExceeded when the namespace quota is full.
func (n *NameNode) Create(path string, size int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(&n.ctr.Creates)
	if _, ok := n.objects[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	ns := namespaceOf(path)
	if q, ok := n.quotas[ns]; ok && q.Max > 0 && q.Used >= q.Max {
		return fmt.Errorf("%w: namespace %q at %d objects", ErrQuotaExceeded, ns, q.Used)
	}
	n.objects[path] = &Object{Path: path, Size: size, Created: n.clock.Now()}
	if q, ok := n.quotas[ns]; ok {
		q.Used++
	}
	return nil
}

// Delete removes a file object.
func (n *NameNode) Delete(path string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(&n.ctr.Deletes)
	if _, ok := n.objects[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(n.objects, path)
	if q, ok := n.quotas[namespaceOf(path)]; ok && q.Used > 0 {
		q.Used--
	}
	return nil
}

// Stat returns the object at path.
func (n *NameNode) Stat(path string) (Object, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(&n.ctr.Stats)
	o, ok := n.objects[path]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return *o, nil
}

// List returns the objects whose paths start with prefix, sorted by path.
func (n *NameNode) List(prefix string) []Object {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(&n.ctr.Lists)
	var out []Object
	for p, o := range n.objects {
		if strings.HasPrefix(p, prefix) {
			out = append(out, *o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Open simulates a read open() RPC against path. It returns the RPC
// latency under current load. Under overload it returns ErrTimeout; the
// caller is expected to retry, and retries themselves add RPC load (the
// thundering-herd effect described in §7). The returned latency is the
// time already spent even when the call fails.
func (n *NameNode) Open(path string) (time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.record(&n.ctr.Opens)
	if _, ok := n.objects[path]; !ok {
		return n.cfg.BaseOpenLatency, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	u := n.utilizationLocked()
	lat := n.openLatencyAt(u)
	if u > n.cfg.TimeoutUtilization {
		// Probability of timeout rises linearly from 0 at the threshold
		// to 1 at 2x the threshold.
		p := (u - n.cfg.TimeoutUtilization) / n.cfg.TimeoutUtilization
		if p > 1 {
			p = 1
		}
		if n.rng.Bernoulli(p) {
			n.ctr.Timeouts++
			return lat * 10, ErrTimeout
		}
	}
	return lat, nil
}

// openLatencyAt returns the open latency at utilization u using a simple
// convex congestion curve: latency grows quadratically with utilization
// and is capped at 50x base to keep simulations bounded.
func (n *NameNode) openLatencyAt(u float64) time.Duration {
	factor := 1 + 10*u*u
	if factor > 50 {
		factor = 50
	}
	return time.Duration(float64(n.cfg.BaseOpenLatency) * factor)
}

// Utilization returns the current NameNode load as the ratio of the
// rolling RPC rate to effective capacity (observers add read capacity).
func (n *NameNode) Utilization() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.utilizationLocked()
}

func (n *NameNode) utilizationLocked() float64 {
	cap := n.cfg.CapacityRPS * float64(1+n.cfg.ObserverNameNodes)
	if cap <= 0 {
		return 0
	}
	return n.load.rate(n.clock.Now()) / cap
}

// record bumps an RPC counter and feeds the rolling load tracker.
func (n *NameNode) record(counter *int64) {
	*counter++
	n.load.add(n.clock.Now(), 1)
}

// RecordRetry accounts for a client retry after a timeout; retries are
// tracked separately so experiments can report retry amplification.
func (n *NameNode) RecordRetry() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ctr.Retries++
}

// Counters returns a snapshot of cumulative RPC counters.
func (n *NameNode) Counters() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ctr
}

// ObjectCount returns the number of objects currently tracked.
func (n *NameNode) ObjectCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.objects)
}

// TotalBytes returns the total bytes across all objects.
func (n *NameNode) TotalBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t int64
	for _, o := range n.objects {
		t += o.Size
	}
	return t
}

// SizeHistogram buckets object sizes by the given ascending boundaries and
// returns counts per bucket plus an overflow bucket; used for the Figure
// 1/2 file-size-distribution experiments. Only objects under prefix are
// counted ("" counts everything).
func (n *NameNode) SizeHistogram(prefix string, bounds []int64) []int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	counts := make([]int64, len(bounds)+1)
	for p, o := range n.objects {
		if prefix != "" && !strings.HasPrefix(p, prefix) {
			continue
		}
		placed := false
		for i, b := range bounds {
			if o.Size < b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}
