package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
)

// chunkTables is how many tables one chunk of the state stream holds:
// about 48 KiB of JSON at the 380 or so bytes a table encodes to.
const chunkTables = 128

// chunkBufSize is the capacity a chunk buffer starts with, headroom
// over a typical chunk so that a buffer rarely grows.
const chunkBufSize = 64 << 10

// writeLakeState streams a lake's state to w: exactly the bytes of
// json.Marshal(&lakeState{Name: name, Day: day, Fleet: f.Snapshot()}),
// encoded straight from the fleet, with neither the snapshot's copy of
// every table nor a buffer holding the whole file.
//
// The tables are encoded in chunks of chunkTables on
// runtime.GOMAXPROCS(0) workers, the calling goroutine among them:
// worker k encodes chunks k, k+workers, k+2·workers, ..., and the
// caller writes every chunk to w in table order. Each helper owns two
// chunk buffers, so it encodes one chunk while the caller writes its
// last; at one worker no goroutine starts.
//
// A NaN or infinite float fails the encode, as it fails json.Marshal,
// with the error of the first such table in table order; bytes already
// handed to w are then an incomplete document. An encode or write error
// stops the helpers, and writeLakeState returns only once every helper
// has exited.
func writeLakeState(w io.Writer, name string, day int, f *Fleet) error {
	b, err := appendLakeHeader(make([]byte, 0, chunkBufSize), name, day, f.header())
	if err != nil {
		return err
	}
	tables := f.tables
	chunks := max(1, (len(tables)+chunkTables-1)/chunkTables)
	workers := min(runtime.GOMAXPROCS(0), chunks)
	helpers := make([]chunkHelper, workers-1)
	defer func() {
		// Take back the buffers a helper has not started on, so it stops
		// at its next chunk, then wait for it to close out as it exits.
		for _, h := range helpers {
			close(h.free)
			for range h.free {
			}
			for range h.out {
			}
		}
	}()
	for k := range helpers {
		h := &helpers[k]
		// Two slots each: a helper holds only its two buffers, so no
		// send on either channel ever blocks.
		h.free, h.out = make(chan []byte, 2), make(chan encodedChunk, 2)
		h.free <- nil
		h.free <- nil
		go h.run(tables, chunks, k+1, workers)
	}
	for i := range chunks {
		var h *chunkHelper
		var chunk []byte
		if k := i % workers; k == 0 {
			// The caller's own chunk; the first follows the header in b.
			b, err = appendTableChunk(b, tables, i)
			chunk = b
		} else {
			h = &helpers[k-1]
			e := <-h.out
			chunk, err = e.b, e.err
		}
		if err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		if h != nil {
			h.free <- chunk
		} else {
			b = b[:0]
		}
	}
	return nil
}

// chunkHelper is a writeLakeState worker running on its own goroutine.
type chunkHelper struct {
	// free holds the helper's buffers the caller has written, nil for
	// one the helper has yet to allocate; out the chunks it encoded, in
	// its chunk order. The helper closes out as it exits.
	free chan []byte
	out  chan encodedChunk
}

// encodedChunk is one chunk a helper encoded, or the error that ended
// its encoding.
type encodedChunk struct {
	b   []byte
	err error
}

// run encodes chunks first, first+stride, ... of tables, each into a
// buffer from free, and stops after an encode error or once free is
// closed.
func (h *chunkHelper) run(tables []*Table, chunks, first, stride int) {
	defer close(h.out)
	for i := first; i < chunks; i += stride {
		b, ok := <-h.free
		if !ok {
			return
		}
		if b == nil {
			b = make([]byte, 0, chunkBufSize)
		}
		b, err := appendTableChunk(b[:0], tables, i)
		h.out <- encodedChunk{b, err}
		if err != nil {
			return
		}
	}
}

// appendTableChunk appends chunk i of tables, each table after a comma
// but the lake's first; the last chunk, which an empty lake's only
// chunk is, ends the document.
func appendTableChunk(b []byte, tables []*Table, i int) ([]byte, error) {
	lo := i * chunkTables
	hi := min(lo+chunkTables, len(tables))
	for j := lo; j < hi; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		t := tables[j]
		ts := t.state()
		var err error
		if b, err = appendTableState(b, &ts); err != nil {
			return b, fmt.Errorf("table %s: %w", t.full, err)
		}
	}
	if hi == len(tables) {
		b = append(b, "]}}"...)
	}
	return b, nil
}

// appendLakeHeader appends the lake's state up to its first table.
func appendLakeHeader(b []byte, name string, day int, st State) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	b = append(b, `,"day":`...)
	b = strconv.AppendInt(b, int64(day), 10)
	b = append(b, `,"fleet":{"config":`...)
	b, err := appendConfig(b, &st.Config)
	if err != nil {
		return b, fmt.Errorf("config: %w", err)
	}
	b = append(b, `,"day":`...)
	b = strconv.AppendInt(b, int64(st.Day), 10)
	b = append(b, `,"onboarded":`...)
	b = strconv.AppendInt(b, int64(st.Onboarded), 10)
	b = append(b, `,"now_ns":`...)
	b = strconv.AppendInt(b, int64(st.Now), 10)
	b = append(b, `,"open_calls":`...)
	b = strconv.AppendInt(b, st.OpenCalls, 10)
	b = append(b, `,"meta_open_calls":`...)
	b = strconv.AppendInt(b, st.MetaOpenCalls, 10)
	b = append(b, `,"rng":{"tables":`...)
	b = strconv.AppendInt(b, st.RNG.Tables, 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, st.RNG.Writes, 10)
	b = append(b, `,"scans":`...)
	b = strconv.AppendInt(b, st.RNG.Scans, 10)
	b = append(b, `,"exec":`...)
	b = strconv.AppendInt(b, st.RNG.Exec, 10)
	return append(b, `},"tables":[`...), nil
}

// appendConfig appends c as encoding/json encodes a Config, whose
// fields carry no tags.
func appendConfig(b []byte, c *Config) ([]byte, error) {
	b = append(b, `{"Seed":`...)
	b = strconv.AppendInt(b, c.Seed, 10)
	b = append(b, `,"InitialTables":`...)
	b = strconv.AppendInt(b, int64(c.InitialTables), 10)
	b = append(b, `,"Databases":`...)
	b = strconv.AppendInt(b, int64(c.Databases), 10)
	b = append(b, `,"QuotaObjectsPerDB":`...)
	b = strconv.AppendInt(b, c.QuotaObjectsPerDB, 10)
	b = append(b, `,"TablesPerMonth":`...)
	b = strconv.AppendInt(b, int64(c.TablesPerMonth), 10)
	b = append(b, `,"TargetFileSize":`...)
	b = strconv.AppendInt(b, c.TargetFileSize, 10)
	var err error
	for _, fl := range [...]struct {
		key string
		v   float64
	}{
		{"InitialTinyFraction", c.InitialTinyFraction},
		{"DailyDriftProb", c.DailyDriftProb},
		{"DailyWriteProb", c.DailyWriteProb},
	} {
		b = append(b, `,"`...)
		b = append(b, fl.key...)
		b = append(b, `":`...)
		if b, err = appendFloat(b, fl.v); err != nil {
			return b, fmt.Errorf("%s: %w", fl.key, err)
		}
	}
	return append(b, '}'), nil
}

// appendTableState appends ts as encoding/json encodes a TableState.
func appendTableState(b []byte, ts *TableState) ([]byte, error) {
	b = append(b, `{"db":`...)
	b = appendString(b, ts.DB)
	b = append(b, `,"name":`...)
	b = appendString(b, ts.Name)
	if ts.Partitioned {
		b = append(b, `,"partitioned":true`...)
	}
	b = append(b, `,"partitions":`...)
	b = strconv.AppendInt(b, int64(ts.Partitions), 10)
	b = append(b, `,"counts":`...)
	b = appendInts(b, &ts.Counts)
	b = append(b, `,"bytes":`...)
	b = appendInts(b, &ts.Bytes)
	b = append(b, `,"created_ns":`...)
	b = strconv.AppendInt(b, int64(ts.Created), 10)
	b = append(b, `,"last_write_ns":`...)
	b = strconv.AppendInt(b, int64(ts.LastWrite), 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, ts.Writes, 10)
	b = append(b, `,"growth_per_day":`...)
	b, err := appendFloat(b, ts.GrowthPerDay)
	if err != nil {
		return b, fmt.Errorf("growth_per_day: %w", err)
	}
	b = append(b, `,"avg_new_file":`...)
	b = strconv.AppendInt(b, ts.AvgNewFile, 10)
	b = append(b, `,"scan_share":`...)
	if b, err = appendFloat(b, ts.ScanShare); err != nil {
		return b, fmt.Errorf("scan_share: %w", err)
	}
	b = append(b, `,"meta_jsons":`...)
	b = strconv.AppendInt(b, ts.MetaJSONs, 10)
	b = append(b, `,"manifests":`...)
	b = strconv.AppendInt(b, ts.Manifests, 10)
	b = append(b, `,"checkpoints":`...)
	b = strconv.AppendInt(b, ts.Checkpoints, 10)
	b = append(b, `,"meta_bytes":`...)
	b = strconv.AppendInt(b, ts.MetaBytes, 10)
	b = append(b, `,"snapshots":`...)
	b = strconv.AppendInt(b, ts.Snapshots, 10)
	b = append(b, `,"commits":`...)
	b = strconv.AppendInt(b, ts.Commits, 10)
	b = append(b, `,"versions_since_ckpt":`...)
	b = strconv.AppendInt(b, ts.VersionsSinceCkpt, 10)
	if len(ts.Props) > 0 {
		keys := make([]string, 0, len(ts.Props))
		for k := range ts.Props {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"props":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendString(b, ts.Props[k])
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendInts(b []byte, v *[3]int64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendFloat appends v formatted as encoding/json formats a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6
// and from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and HTML's <>& needs no escape and is copied
// inline; any other string goes through encoding/json, which escapes
// control bytes, <>&, U+2028 and U+2029, and replaces invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
