package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// entries lists the names in dir, failing the test on error.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, content := range []string{"first", "second"} {
		if _, err := Write(path, ".out.tmp-*", writeString(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("read %q, want %q", got, content)
		}
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only out.json", names)
	}
}

// A failed step leaves the destination as it was and no temp file
// behind, and reports which step failed with that step's own error.
func TestWriteFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	step, err := Write(path, ".out.tmp-*", func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if step != Fill || err != boom {
		t.Errorf("fill failure = (%v, %v), want (Fill, boom)", step, err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("destination now holds %q, want the old content", got)
	}

	// Renaming onto a non-empty directory fails after a complete fill.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if step, err := Write(sub, ".sub.tmp-*", writeString("x")); step != Rename || err == nil {
		t.Errorf("rename failure = (%v, %v), want (Rename, error)", step, err)
	}
	if names := entries(t, dir); len(names) != 2 {
		t.Errorf("directory holds %v, want only out.json and sub", names)
	}

	missing := filepath.Join(dir, "no-such-dir", "out.json")
	if step, err := Write(missing, ".out.tmp-*", writeString("x")); step != Create || err == nil {
		t.Errorf("create failure = (%v, %v), want (Create, error)", step, err)
	}
}
