package lstlog

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStreamSubFileFailedWriteKeepsTarget fails a streamed write after
// it wrote some bytes, under both fsync policies: the target keeps its
// previous content (or stays absent) and the temp file is removed.
func TestStreamSubFileFailedWriteKeepsTarget(t *testing.T) {
	errStop := errors.New("encoder stopped")
	failing := func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"name":"half`)); err != nil {
			return err
		}
		return errStop
	}
	for _, fsync := range []string{FsyncAlways, FsyncNone} {
		t.Run(fsync, func(t *testing.T) {
			s, err := Open(Config{Root: t.TempDir(), Fsync: fsync})
			if err != nil {
				t.Fatal(err)
			}
			const rel, fresh = "tenants/a/fleet.json", "tenants/a/other.json"
			prev := []byte(`{"name":"a","day":1}`)
			if err := s.WriteSubFile(rel, prev); err != nil {
				t.Fatal(err)
			}

			if err := s.StreamSubFile(rel, failing); !errors.Is(err, errStop) {
				t.Fatalf("StreamSubFile over an existing file = %v, want the write's error", err)
			}
			got, err := s.ReadSubFile(rel)
			if err != nil || string(got) != string(prev) {
				t.Fatalf("target after a failed write = %q, %v; want %q", got, err, prev)
			}
			if err := s.StreamSubFile(fresh, failing); !errors.Is(err, errStop) {
				t.Fatalf("StreamSubFile to a new file = %v, want the write's error", err)
			}
			if _, err := s.ReadSubFile(fresh); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("new target after a failed write: %v, want it absent", err)
			}

			tmps, err := filepath.Glob(filepath.Join(s.Root(), "tenants", "a", ".tmp-*"))
			if err != nil || len(tmps) > 0 {
				t.Fatalf("failed writes left temp files %v (%v)", tmps, err)
			}
		})
	}
}
