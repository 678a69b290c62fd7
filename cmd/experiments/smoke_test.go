package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// smokeOps is the µop count per workload of the smoke checks.
const smokeOps = 20000

// TestWarmFig2IsAllHits runs the fig2 campaign cold into an empty run
// store, then twice more on the warm store, at GOMAXPROCS=1 and at
// NumCPU. The store lookup runs on the worker pool, so both warm reruns
// must be pure store hits and print the cold run's Figure 2 byte for
// byte.
func TestWarmFig2IsAllHits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig2 campaign cold at smoke size")
	}
	store := t.TempDir()
	var cold bytes.Buffer
	if err := realMain(&cold, io.Discard, "fig2", smokeOps, 2, store, ""); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		var out, stderr bytes.Buffer
		prev := runtime.GOMAXPROCS(procs)
		err := realMain(&out, &stderr, "fig2", smokeOps, 2, store, "")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if hits, simulated := storeLine(t, stderr.String()); hits == 0 || simulated != 0 {
			t.Errorf("warm rerun at GOMAXPROCS=%d: %d hits, %d simulated, want only hits", procs, hits, simulated)
		}
		if !bytes.Equal(out.Bytes(), cold.Bytes()) {
			t.Errorf("warm Figure 2 at GOMAXPROCS=%d differs from the cold one:\n%s\n---\n%s", procs, out.String(), cold.String())
		}
	}
}

// storeLine parses the hit and simulation counts out of realMain's
// run-store line.
func storeLine(t *testing.T, stderr string) (hits, simulated int) {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "run store "); ok {
			_, counts, _ := strings.Cut(rest, ": ")
			var rate float64
			if _, err := fmt.Sscanf(counts, "%d hits, %d simulated (%g%% hit rate)", &hits, &simulated, &rate); err != nil {
				t.Fatalf("run store line %q: %v", line, err)
			}
			return hits, simulated
		}
	}
	t.Fatalf("no run store line in:\n%s", stderr)
	return 0, 0
}
