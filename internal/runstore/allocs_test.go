package runstore

import (
	"testing"

	"repro/internal/core"
)

// TestHitAllocs pins what a store hit allocates, independent of the
// host: a GetResult hit allocates the entry path, the NUL-terminated
// copy the open system call takes, and the returned Result; a GetFit
// hit only the first two. The counts hold without the race detector.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m, w, r := simulateOne(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	simKey := SimKey(m, w)
	if err := st.PutResult(simKey, r); err != nil {
		t.Fatal(err)
	}
	mp, obs, opts := fitInputs()
	fitKey := FitKey(mp, obs, opts)
	if err := st.Put(fitKey, core.Params{B1: 1.0 / 3, B2: 0.25, B5: 1e-7, B10: 12}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		get  func() bool
	}{
		{"GetResult", 3, func() bool { _, ok, _ := st.GetResult(simKey); return ok }},
		{"GetFit", 2, func() bool { _, ok, _ := st.GetFit(fitKey); return ok }},
	} {
		hit := true
		n := testing.AllocsPerRun(100, func() { hit = hit && c.get() })
		if !hit {
			t.Errorf("%s: a stored entry missed", c.name)
		}
		if n != c.want {
			t.Errorf("%s hit: %v allocs, want %v", c.name, n, c.want)
		}
	}
}
