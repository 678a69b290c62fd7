// Package golden pins test output to files under the testing package's
// testdata directory. A test binary that imports it takes
// -update-golden, which rewrites the files from live output instead of
// comparing against them.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite the goldens from live output")

// Check compares got byte for byte against testdata/name, or rewrites
// the file under -update-golden.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d vs %d bytes):\n%s", name, len(got), len(want), got)
	}
}
