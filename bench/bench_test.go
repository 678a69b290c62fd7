package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload in a few seconds: the smoke test checks
// the plumbing and the outputs, not the numbers.
var tinySize = size{ops: 5000, fitStarts: 2, setups: 2, warmup: 200 * time.Millisecond, tracedRequests: 50}

func loadDeclared(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkFile
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONWithinLimits(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads; want 2 to 8", len(d.Workloads))
	}
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics; want 1 to 16", len(d.EndToEnd))
	}
	if len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; want 1 to 128", len(d.PerLayer))
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d; want 1 to 60", d.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	var names []string
	for _, w := range d.Workloads {
		use(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v; the program runs %v", names, workloadNames())
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") ||
			m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range d.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction", m.Name)
		}
	}
}

// TestEveryWorkloadReportsItsDeclaredMetrics runs each workload, untraced
// and traced, at tiny size: every run must be correct and report exactly
// the metrics BENCHMARK.json declares, with their units.
func TestEveryWorkloadReportsItsDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	units := func(traced bool) map[string]string {
		out := map[string]string{}
		if traced {
			for _, m := range d.PerLayer {
				out[m.Name] = m.Unit
			}
		} else {
			for _, m := range d.EndToEnd {
				out[m.Name] = m.Unit
			}
		}
		return out
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, seconds: 0, size: tinySize, dir: t.TempDir()}
			if name == "serve-predict" {
				rc.seconds = time.Second
			}
			if traced {
				rc.spans = rc.dir + "/spans.json"
			}
			var log strings.Builder
			res, err := runWorkload(name, traced, rc, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := units(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for m, u := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != u {
					t.Errorf("%s traced=%v: metric %s reported as %+v; want unit %s", name, traced, m, got, u)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; want > 0", name, m, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(rc.spans); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}
