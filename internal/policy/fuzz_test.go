package policy

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPolicySpec feeds arbitrary bytes to the spec parser, the daemon's
// only pipeline input. Parse and Validate must return rather than
// panic, a parsed spec must marshal, and parsing a marshaled spec must
// marshal back to the same bytes. The shipped policies seed the corpus.
//
//	go test -run '^$' -fuzz '^FuzzPolicySpec$' -fuzztime 20s ./internal/policy
func FuzzPolicySpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "policies", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no shipped policies to seed from (err %v)", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(b)
		if err != nil {
			return
		}
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("parsed spec does not marshal: %v", err)
		}
		_ = Validate(s, StubEnv())
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled spec does not parse: %v\n%s", err, out)
		}
		out2, err := again.Marshal()
		if err != nil {
			t.Fatalf("reparsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not stable across a parse:\n%s\nthen\n%s", out, out2)
		}
	})
}
