//go:build unix

package runstore

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFIFOEntryIsMissAndEvicted: a FIFO at an entry path must not block
// a lookup until some writer opens it. Reading it as a simulation or as
// a fit is a miss within the deadline, and the FIFO is evicted.
func TestFIFOEntryIsMissAndEvicted(t *testing.T) {
	m, w, _ := simulateOne(t)
	mp, obs, opts := fitInputs()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, key string
		get       func(string) (bool, error)
	}{
		{"GetResult", SimKey(m, w), func(k string) (bool, error) { _, ok, err := st.GetResult(k); return ok, err }},
		{"GetFit", FitKey(mp, obs, opts), func(k string) (bool, error) { _, ok, err := st.GetFit(k); return ok, err }},
		{"Get", CalibrationKey(m), func(k string) (bool, error) { var p core.Params; return st.Get(k, &p) }},
	} {
		path := st.path(c.key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mkfifo(path, 0o644); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		type lookup struct {
			ok  bool
			err error
		}
		done := make(chan lookup, 1)
		go func() {
			ok, err := c.get(c.key)
			done <- lookup{ok, err}
		}()
		select {
		case l := <-done:
			if l.ok || l.err != nil {
				t.Errorf("%s on a FIFO: hit=%v err=%v, want a clean miss", c.name, l.ok, l.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s on a FIFO did not return within 5s", c.name)
		}
		if _, err := os.Lstat(path); !os.IsNotExist(err) {
			t.Errorf("%s: the FIFO was not evicted", c.name)
		}
	}
}
