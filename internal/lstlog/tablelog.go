package lstlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

const logDirName = "_delta_log"

var (
	actionFileRe    = regexp.MustCompile(`^(\d{20})\.json$`)
	compactedFileRe = regexp.MustCompile(`^(\d{20})\.(\d{20})\.compacted\.json$`)
)

// TableLog appends a table's actions to its _delta_log directory: one
// %020d.json file per log sequence number, plus a compacted artifact
// whenever the table checkpoints its metadata. Safe for concurrent use.
type TableLog struct {
	mu    sync.Mutex
	dir   string
	fsync bool
	next  int64
}

// compactedArtifact is the payload of a NNNN.NNNN.compacted.json file:
// the complete table state as of the named LSN, so recovery can skip
// replaying everything before it.
type compactedArtifact struct {
	LSN   int64           `json:"lsn"`
	State *lst.TableState `json:"state"`
}

// NextLSN returns the LSN the next appended action will receive.
func (l *TableLog) NextLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Sink returns the lst.ActionSink that appends to this log — attach it
// with Table.SetActionSink.
func (l *TableLog) Sink() lst.ActionSink {
	return func(a lst.Action) error { return l.Append(a) }
}

// Append durably records one action at the next LSN. Checkpoint actions
// additionally materialize their embedded table state as a compacted
// artifact covering the log up to this LSN.
func (l *TableLog) Append(a lst.Action) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.next
	data, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("lstlog: encoding action: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(l.dir, actionFileName(lsn)), writeBytes(append(data, '\n')), l.fsync); err != nil {
		return fmt.Errorf("lstlog: appending lsn %d: %w", lsn, err)
	}
	l.next = lsn + 1
	if a.Kind == lst.ActionCheckpoint && a.State != nil {
		art := compactedArtifact{LSN: lsn, State: a.State}
		data, err := json.Marshal(art)
		if err != nil {
			return fmt.Errorf("lstlog: encoding compacted artifact: %w", err)
		}
		name := compactedFileName(0, lsn)
		if err := writeFileAtomic(filepath.Join(l.dir, name), writeBytes(append(data, '\n')), l.fsync); err != nil {
			return fmt.Errorf("lstlog: writing %s: %w", name, err)
		}
	}
	return nil
}

func actionFileName(lsn int64) string {
	return fmt.Sprintf("%020d.json", lsn)
}

func compactedFileName(start, end int64) string {
	return fmt.Sprintf("%020d.%020d.compacted.json", start, end)
}

// scanNext returns one past the highest contiguous LSN present,
// starting from 0. Files after a gap are unreachable by replay and are
// ignored (a fresh process appends over the gap's position).
func (l *TableLog) scanNext() (int64, error) {
	present := map[int64]bool{}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if m := actionFileRe.FindStringSubmatch(e.Name()); m != nil {
			n, err := strconv.ParseInt(m[1], 10, 64)
			if err == nil {
				present[n] = true
			}
		}
	}
	var next int64
	for present[next] {
		next++
	}
	return next, nil
}

// OpenTable reconstructs a table from its persisted directory (the
// table dir containing _delta_log, or the _delta_log directory itself),
// recreating its storage objects in fs. Recovery prefers the newest
// parseable compacted artifact and replays only the action tail after
// it; a missing or corrupt artifact falls back to the next older one
// and finally to a full replay from LSN 0 (action files are never
// pruned). Replay stops at the first missing or torn action file — the
// crash signature — so the table resumes from its last durable version.
// The returned TableLog appends after the last applied LSN; attach its
// Sink to the table to continue logging.
func OpenTable(dir string, fs *storage.NameNode, clock *sim.Clock) (*lst.Table, *TableLog, error) {
	return openTable(dir, fs, clock, true)
}

// OpenTableTail is OpenTable with compacted artifacts ignored: a forced
// full-tail replay from LSN 0. It exists for the cold-start recovery
// benchmark, which measures what checkpointing saves.
func OpenTableTail(dir string, fs *storage.NameNode, clock *sim.Clock) (*lst.Table, *TableLog, error) {
	return openTable(dir, fs, clock, false)
}

func openTable(dir string, fs *storage.NameNode, clock *sim.Clock, useCompacted bool) (*lst.Table, *TableLog, error) {
	logDir := dir
	if filepath.Base(dir) != logDirName {
		logDir = filepath.Join(dir, logDirName)
	}
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return nil, nil, fmt.Errorf("lstlog: %w", err)
	}

	// Newest-first list of compacted artifacts by covered end LSN.
	type artifact struct {
		name string
		end  int64
	}
	var artifacts []artifact
	for _, e := range entries {
		if m := compactedFileRe.FindStringSubmatch(e.Name()); m != nil {
			end, err := strconv.ParseInt(m[2], 10, 64)
			if err == nil {
				artifacts = append(artifacts, artifact{name: e.Name(), end: end})
			}
		}
	}
	sort.Slice(artifacts, func(i, j int) bool { return artifacts[i].end > artifacts[j].end })

	var table *lst.Table
	var start int64
	if useCompacted {
		for _, art := range artifacts {
			data, err := os.ReadFile(filepath.Join(logDir, art.name))
			if err != nil {
				continue
			}
			var ca compactedArtifact
			if err := json.Unmarshal(data, &ca); err != nil || ca.State == nil {
				// A torn artifact is recoverable: older artifacts and the
				// full action tail still describe the table.
				continue
			}
			t, err := lst.FromState(ca.State, fs, clock)
			if err != nil {
				return nil, nil, fmt.Errorf("lstlog: restoring %s: %w", art.name, err)
			}
			table = t
			start = ca.LSN + 1
			break
		}
	}

	// Replay the action tail. The first missing or unparseable file ends
	// the durable log; anything after it is unreachable.
	last := start - 1
	for lsn := start; ; lsn++ {
		data, err := os.ReadFile(filepath.Join(logDir, actionFileName(lsn)))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("lstlog: reading lsn %d: %w", lsn, err)
		}
		var a lst.Action
		if err := json.Unmarshal(data, &a); err != nil {
			break // torn tail write: the action never became durable
		}
		if table == nil {
			switch {
			case a.Kind == lst.ActionCreate:
				t, err := lst.ReplayCreate(a, fs, clock)
				if err != nil {
					return nil, nil, err
				}
				table = t
			case a.Kind == lst.ActionCheckpoint && a.State != nil:
				// A bootstrap record: a table attached to the log with
				// pre-log history starts with a state-bearing checkpoint
				// instead of a create action.
				t, err := lst.FromState(a.State, fs, clock)
				if err != nil {
					return nil, nil, fmt.Errorf("lstlog: restoring bootstrap lsn %d: %w", lsn, err)
				}
				table = t
			default:
				return nil, nil, fmt.Errorf("lstlog: log starts with %q, want %q", a.Kind, lst.ActionCreate)
			}
		} else if err := table.Apply(a); err != nil {
			return nil, nil, fmt.Errorf("lstlog: applying lsn %d: %w", lsn, err)
		}
		last = lsn
	}
	if table == nil {
		return nil, nil, fmt.Errorf("lstlog: %s holds no replayable log", logDir)
	}
	// Note the log resumes at last+1 even when later (post-gap or torn)
	// files exist on disk: they were never durable, and the atomic
	// rename on append simply replaces them.
	return table, &TableLog{dir: logDir, next: last + 1}, nil
}
