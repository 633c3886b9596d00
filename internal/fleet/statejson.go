package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// chunkSize is how many encoded bytes writeLakeState gathers before it
// hands them to the writer.
const chunkSize = 64 << 10

// writeLakeState streams a lake's state to w: exactly the bytes of
// json.Marshal(&lakeState{Name: name, Day: day, Fleet: f.Snapshot()}),
// encoded table by table straight from the fleet, with neither the
// snapshot's copy of every table nor a buffer holding the whole file.
// A NaN or infinite float fails the encode, as it fails json.Marshal;
// bytes already handed to w are then an incomplete document.
func writeLakeState(w io.Writer, name string, day int, f *Fleet) error {
	st := f.header()
	b := make([]byte, 0, chunkSize+chunkSize/8)
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	b = append(b, `,"day":`...)
	b = strconv.AppendInt(b, int64(day), 10)
	b = append(b, `,"fleet":{"config":`...)
	b, err := appendConfig(b, &st.Config)
	if err != nil {
		return fmt.Errorf("config: %w", err)
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
	b = append(b, `},"tables":[`...)
	for i, t := range f.tables {
		if i > 0 {
			b = append(b, ',')
		}
		ts := t.state()
		if b, err = appendTableState(b, &ts); err != nil {
			return fmt.Errorf("table %s: %w", t.full, err)
		}
		if len(b) >= chunkSize {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}}"...)
	_, err = w.Write(b)
	return err
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
