package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/suites"
	"repro/internal/trace"
)

// smokeOps is the µop count per workload of the smoke checks.
const smokeOps = 20000

// smokeRuns lists the cmd/sweep runs whose warm rerun must be served
// entirely from the run store; "trace" is a one-cell plan over recorded
// traces, whose suite TestWarmRerunIsAllHits fills in. The optimize and
// seeds modes rerun warm in TestRealMainOptimizeFile and
// TestRealMainSeedsFile.
var smokeRuns = []struct{ name, kind, payload string }{
	{"sweep", experiments.JobKindSweep,
		`{"base": {"name": "core2"}, "param": "rob", "values": [48, 96, 192], "suite": "cpu2000"}`},
	{"plan", experiments.JobKindPlan, detPlans[0].payload},
	{"trace", experiments.JobKindPlan,
		`{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [96]}], "suite": "file:%s"}`},
}

// detPlans are grid plans whose output and run store must not depend on
// GOMAXPROCS. Cells simulate concurrently over shared traces and tapes,
// and a fit's starts run on every core. rob × mshrs has one walk key;
// memlat × l2kb has an axis that shares a walk (memlat) and one that
// splits it (l2kb).
var detPlans = []struct{ name, payload string }{
	{"rob_mshrs", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}, {"param": "mshrs", "values": [4, 8]}], "suite": "cpu2000"}`},
	{"memlat_l2kb", `{"base": {"name": "core2"}, "axes": [{"param": "memlat", "values": [150, 300]}, {"param": "l2kb", "values": [2048, 4096]}], "suite": "cpu2000"}`},
}

// TestWarmRerunIsAllHits runs each of smokeRuns cold into an empty run
// store, then reruns it warm through checkWarmReruns. The trace case
// exports cpu2000 to .mtrc files and plans over the directory as a
// "file:DIR" suite: recorded streams replay from the store, not from
// disk.
func TestWarmRerunIsAllHits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each case cold at smoke size")
	}
	for _, r := range smokeRuns {
		t.Run(r.name, func(t *testing.T) {
			payload := r.payload
			if r.name == "trace" {
				payload = fmt.Sprintf(payload, exportSuite(t, "cpu2000"))
			}
			store := t.TempDir()
			runKind(t, r.kind, payload, smokeOps, store, true)
			checkWarmReruns(t, r.kind, func() (string, string) {
				out, stderr, _ := runKind(t, r.kind, payload, smokeOps, store, true)
				return out, stderr
			})
		})
	}
}

// checkWarmReruns calls rerun, a -json rerun of a kind on a warm run
// store, at GOMAXPROCS=1 and at NumCPU. Each must be served from the
// store, simulate nothing and generate or load no trace — on realMain's run-store line and, where
// the kind's report has one, in its sims block — and the two reports
// must be byte-identical. It returns the report.
func checkWarmReruns(t *testing.T, kind string, rerun func() (out, stderr string)) string {
	t.Helper()
	var warm []string
	for _, procs := range []int{1, runtime.NumCPU()} {
		var out, stderr string
		atProcs(procs, func() { out, stderr = rerun() })
		if st := storeLine(t, stderr); st.Hits == 0 || st.Simulated != 0 || st.TraceGens != 0 {
			t.Errorf("warm rerun at GOMAXPROCS=%d: run store line %+v, want only hits", procs, st)
		}
		var rep struct {
			Sims *experiments.SimStats `json:"sims"`
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("-json report: %v\n%s", err, out)
		}
		if kind != experiments.JobKindSweep && rep.Sims == nil {
			t.Errorf("the %s report has no sims block", kind)
		}
		if rep.Sims != nil && (rep.Sims.Hits == 0 || rep.Sims.Simulated != 0 || rep.Sims.TraceGens != 0) {
			t.Errorf("warm rerun at GOMAXPROCS=%d: report sims %+v, want store hits, zero simulated and zero traceGens", procs, *rep.Sims)
		}
		warm = append(warm, out)
	}
	if warm[0] != warm[1] {
		t.Errorf("warm reports differ across GOMAXPROCS at %s", firstDiff(warm[0], warm[1]))
	}
	return warm[0]
}

// TestPlanDeterministicAcrossGOMAXPROCS runs each of detPlans cold at
// GOMAXPROCS=1 and at NumCPU, each into an empty run store: the -json
// reports and the two store trees — every simulation entry and the
// plan's stored base fit — must be byte-identical.
func TestPlanDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four cold plans at smoke size")
	}
	for _, p := range detPlans {
		t.Run(p.name, func(t *testing.T) {
			var outs, stores []string
			for _, procs := range []int{1, runtime.NumCPU()} {
				store := t.TempDir()
				var out string
				atProcs(procs, func() { out, _, _ = runKind(t, experiments.JobKindPlan, p.payload, smokeOps, store, true) })
				outs, stores = append(outs, out), append(stores, store)
			}
			if outs[0] != outs[1] {
				t.Errorf("plan JSON differs across GOMAXPROCS at %s", firstDiff(outs[0], outs[1]))
			}
			a, b := readTree(t, stores[0]), readTree(t, stores[1])
			for _, path := range slices.Sorted(maps.Keys(a)) {
				if data, ok := b[path]; !ok || data != a[path] {
					t.Errorf("run store entry %s differs across GOMAXPROCS (present at NumCPU: %v)", path, ok)
				}
			}
			for path := range b {
				if _, ok := a[path]; !ok {
					t.Errorf("run store entry %s written only at NumCPU", path)
				}
			}
		})
	}
}

// firstDiff locates the first line at which a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("the end: %d vs %d lines", len(al), len(bl))
}

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// storeLine parses realMain's run-store line out of its stderr.
func storeLine(t *testing.T, stderr string) experiments.SimStats {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "run store "); ok {
			_, counts, _ := strings.Cut(rest, ": ")
			var st experiments.SimStats
			var rate float64
			if _, err := fmt.Sscanf(counts, "%d hits, %d simulated (%g%% hit rate), %d traces generated",
				&st.Hits, &st.Simulated, &rate, &st.TraceGens); err != nil {
				t.Fatalf("run store line %q: %v", line, err)
			}
			return st
		}
	}
	t.Fatalf("no run store line in:\n%s", stderr)
	return experiments.SimStats{}
}

// readTree returns every directory and file under root by its path
// relative to root, a file with its bytes.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || d.IsDir() {
			tree[rel+"/"] = ""
			return err
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// exportSuite does what `tracetool export -suite name -ops smokeOps
// -out DIR` does — cmd/tracetool's cmdExport, which
// TestExportSuiteDirectory runs — with the same two calls per workload,
// trace.MaterializeSpec and trace.WriteFile, into a new directory, and
// returns the directory.
func exportSuite(t *testing.T, name string) string {
	t.Helper()
	suite, err := suites.ByName(name, suites.Options{NumOps: smokeOps})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, spec := range suite.Workloads {
		buf, err := trace.MaterializeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(filepath.Join(dir, spec.Name+trace.FileExt), buf); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
