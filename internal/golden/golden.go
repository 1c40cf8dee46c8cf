// Package golden checks test outputs against files recorded under the
// calling package's testdata/golden directory. A test computes its
// output, usually a Digest of a result, and Check compares it with the
// recorded file; `go test -update` rewrites the files instead, for a
// change that alters results on purpose.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// Digest returns the hex SHA-256 of v's JSON encoding.
func Digest(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Check compares got with testdata/golden/name, or rewrites that file
// under -update.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if w := strings.TrimSuffix(string(want), "\n"); w != got {
		t.Errorf("%s:\ngot    %s\ngolden %s", name, got, w)
	}
}
