package suites

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRoundTripAllRegisteredSuites is the format's property test: for
// every workload of every registered suite — the SPEC-like pair and
// both synthetic families — Materialize → Encode → Decode → Replay is
// op-for-op identical to replaying the original buffer. MicroOp is
// pure scalars, so struct equality is bit-identity.
func TestRoundTripAllRegisteredSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes every workload of every suite")
	}
	for _, name := range Names() {
		suite, err := ByName(name, Options{NumOps: 2000})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range suite.Workloads {
			orig := trace.Materialize(spec)
			var f bytes.Buffer
			if err := orig.Encode(&f); err != nil {
				t.Fatalf("%s/%s: encode: %v", name, spec.Name, err)
			}
			dec, err := trace.Decode(bytes.NewReader(f.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, spec.Name, err)
			}
			oc, dc := orig.Replay(), dec.Replay()
			var a, b trace.MicroOp
			for i := 0; oc.Next(&a); i++ {
				if !dc.Next(&b) {
					t.Fatalf("%s/%s: decoded stream ends at op %d", name, spec.Name, i)
				}
				if a != b {
					t.Fatalf("%s/%s: op %d differs after round trip:\n  %+v\n  %+v", name, spec.Name, i, a, b)
				}
			}
			if dc.Next(&b) {
				t.Fatalf("%s/%s: decoded stream too long", name, spec.Name)
			}
		}
	}
}

// exportSuite writes every workload of a suite to dir as .mtrc files.
func exportSuite(t *testing.T, name string, opts Options, dir string) Suite {
	t.Helper()
	suite, err := ByName(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range suite.Workloads {
		buf, err := trace.MaterializeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(filepath.Join(dir, spec.Name+trace.FileExt), buf); err != nil {
			t.Fatal(err)
		}
	}
	return suite
}

func TestFileSpecForm(t *testing.T) {
	dir := t.TempDir()
	gen := exportSuite(t, "bursty", Options{NumOps: 2000}, dir)

	spec := FilePrefix + dir
	got, err := ByName(spec, Options{NumOps: 999999}) // NumOps ignored for files
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec {
		t.Errorf("suite name %q, want %q", got.Name, spec)
	}
	if len(got.Workloads) != len(gen.Workloads) {
		t.Fatalf("file suite has %d workloads, generated %d", len(got.Workloads), len(gen.Workloads))
	}
	for _, wl := range got.Workloads {
		if wl.Content == "" || wl.SourceFile == "" {
			t.Errorf("workload %s missing Content/SourceFile", wl.Name)
		}
		if wl.NumOps != 2000 {
			t.Errorf("workload %s carries %d ops, want the recorded 2000", wl.Name, wl.NumOps)
		}
		genSpec, ok := gen.Find(wl.Name)
		if !ok {
			t.Fatalf("file suite workload %s not in generated suite", wl.Name)
		}
		if wl.ConfigHash() == genSpec.ConfigHash() {
			t.Errorf("workload %s: file-backed identity must differ from generated (Content folds in)", wl.Name)
		}
	}

	// A single file resolves as a one-workload suite.
	single := filepath.Join(dir, gen.Workloads[0].Name+trace.FileExt)
	one, err := ByName(FilePrefix+single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Workloads) != 1 || one.Workloads[0].Name != gen.Workloads[0].Name {
		t.Fatalf("single-file suite resolved to %+v", one.Workloads)
	}

	// Re-seeding a recorded trace is impossible; fail loudly.
	if _, err := ByName(spec, Options{SeedBase: 3}); err == nil {
		t.Error("file suite accepted a SeedBase")
	}
}

func TestRegisterFile(t *testing.T) {
	dir := t.TempDir()
	exportSuite(t, "phased", Options{NumOps: 2000}, dir)

	const name = "phased-import-test"
	if err := RegisterFile(name, dir); err != nil {
		t.Fatal(err)
	}
	got, err := ByName(name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != name || len(got.Workloads) != 8 {
		t.Fatalf("registered file suite %q has %d workloads", got.Name, len(got.Workloads))
	}
	src, err := SuiteSource(name)
	if err != nil || src != SourceFile {
		t.Errorf("SuiteSource = %v, %v; want file", src, err)
	}
	if !IsFileBacked(name) {
		t.Error("IsFileBacked(registered file suite) = false")
	}
	if IsFileBacked("cpu2000") {
		t.Error("IsFileBacked(cpu2000) = true")
	}
	if !IsFileBacked(FilePrefix + dir) {
		t.Error("IsFileBacked(file: spec) = false")
	}
	if _, err := ByName(name, Options{SeedBase: 1}); err == nil {
		t.Error("registered file suite accepted a SeedBase")
	}
	if err := RegisterFile(name, dir); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := RegisterFile("", dir); err == nil {
		t.Error("empty name registration succeeded")
	}
	if err := RegisterFile(FilePrefix+"x", dir); err == nil {
		t.Error("name colliding with the file: form succeeded")
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Error("registered file suite missing from Names()")
	}
}

func TestFileSuiteErrors(t *testing.T) {
	if _, err := ByName(FilePrefix+filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("missing path resolved")
	}
	if _, err := ByName(FilePrefix+t.TempDir(), Options{}); err == nil {
		t.Error("empty directory resolved")
	}
	if _, err := SuiteSource("no-such-suite"); !errors.Is(err, ErrUnknownSuite) {
		t.Errorf("SuiteSource(unknown) = %v, want ErrUnknownSuite", err)
	}

	// Duplicate workload names across files are ambiguous.
	dir := t.TempDir()
	spec := trace.Spec{
		Name: "dup", Seed: 3, NumOps: 1000,
		LoadFrac: 0.2, BranchHardFrac: 0.2,
		CodeFootprint: 16 << 10, CodeLocality: 0.8,
		DataFootprint: 1 << 20, DataLocality: 0.5, DepDistMean: 6,
	}
	buf := trace.Materialize(spec)
	for _, f := range []string{"a.mtrc", "b.mtrc"} {
		if err := trace.WriteFile(filepath.Join(dir, f), buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByName(FilePrefix+dir, Options{}); err == nil || !strings.Contains(err.Error(), "dup") {
		t.Errorf("duplicate workload names resolved: %v", err)
	}

	// A corrupt file in the directory fails the whole suite.
	dir2 := t.TempDir()
	if err := trace.WriteFile(filepath.Join(dir2, "ok.mtrc"), buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "bad.mtrc"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName(FilePrefix+dir2, Options{}); err == nil {
		t.Error("suite with a corrupt member resolved")
	}
}

// TestFileSuiteReportsFirstBadFile: the members of a directory are
// verified in parallel, but the error still names the first failing file
// in sorted order, whichever worker finishes first. The 1st file is a
// short valid trace, the 2nd fails only at its checksum, after hashing
// every record, and the 3rd fails at its first byte: a worker done with
// the 1st reaches the 3rd's error long before the 2nd's.
func TestFileSuiteReportsFirstBadFile(t *testing.T) {
	dir := t.TempDir()
	exportSuite(t, "cpu2000", Options{NumOps: 20000}, dir)
	files, err := filepath.Glob(filepath.Join(dir, "*"+trace.FileExt))
	if err != nil || len(files) < 4 {
		t.Fatalf("exported %d files (%v), want at least 4", len(files), err)
	}
	sort.Strings(files)
	short := trace.Materialize(trace.Spec{
		Name: "short", Seed: 3, NumOps: 1000,
		LoadFrac: 0.2, BranchHardFrac: 0.2,
		CodeFootprint: 16 << 10, CodeLocality: 0.8,
		DataFootprint: 1 << 20, DataLocality: 0.5, DepDistMean: 6,
	})
	if err := trace.WriteFile(files[0], short); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[2], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for range 5 {
			_, err := ByName(FilePrefix+dir, Options{})
			if err == nil || !strings.Contains(err.Error(), files[1]+":") || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("GOMAXPROCS=%d: err = %v, want %s's checksum mismatch", procs, err, files[1])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestFamilySuitesRegistered(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int
	}{{"phased", 8}, {"bursty", 8}} {
		s, err := ByName(tc.name, Options{NumOps: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Workloads) != tc.want {
			t.Errorf("%s has %d workloads, want %d", tc.name, len(s.Workloads), tc.want)
		}
		for _, wl := range s.Workloads {
			if wl.NumOps != 1000 {
				t.Errorf("%s/%s ignores Options.NumOps", tc.name, wl.Name)
			}
			if err := wl.Validate(); err != nil {
				t.Errorf("%s/%s: %v", tc.name, wl.Name, err)
			}
		}
		src, err := SuiteSource(tc.name)
		if err != nil || src != SourceBuiltin {
			t.Errorf("SuiteSource(%s) = %v, %v; want builtin", tc.name, src, err)
		}
	}
	// The families must actually use their modulations.
	ph, _ := ByName("phased", Options{NumOps: 1000})
	for _, wl := range ph.Workloads {
		if len(wl.Phases) < 2 {
			t.Errorf("phased/%s has no phase schedule", wl.Name)
		}
	}
	bu, _ := ByName("bursty", Options{NumOps: 1000})
	for _, wl := range bu.Workloads {
		if wl.BurstFrac <= 0 || wl.BurstLen < 1 {
			t.Errorf("bursty/%s has no burst modulation", wl.Name)
		}
	}
}
