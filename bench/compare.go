package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Verdicts of compare, one per metric and workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs an improvement may rest on.
const minPairs = 10

// judge compares the paired runs of one metric on one workload, parent[i]
// paired with change[i]. The change improves the metric only when it
// wins at least nine tenths of at least minPairs pairs (ties count for
// neither side) and the medians differ, in its favour, by more than the
// parent's interquartile range. It regresses when its median is worse
// than the parent's by more than bound, a share of the parent's median.
// Otherwise it is unchanged, or unresolved when either side's
// run-to-run spread exceeds the bound, unless every change run reads
// better than every parent run.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) (verdict string, wins, pairs int) {
	pairs = min(len(parent), len(change))
	better := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	for i := range pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	medP, medC := median(parent), median(change)
	gain := medP - medC // how much better the change's median reads
	if !lowerIsBetter {
		gain = -gain
	}
	q1, _, q3 := quartiles(parent)
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case pairs >= minPairs && 10*wins >= 9*pairs && gain > q3-q1:
		return improved, wins, pairs
	case -gain > bound*medP:
		return regressed, wins, pairs
	case (spread(parent) > bound || spread(change) > bound) && !allBetter:
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// readRuns loads the untraced runs of a runs.jsonl file, per workload in
// file order.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r loggedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			runs[r.Workload] = append(runs[r.Workload], r.Result)
		}
	}
	return runs, sc.Err()
}

// compareMain implements `bench compare PARENT.jsonl CHANGE.jsonl...`
// against the bounds in BENCHMARK.json, read from the repository root
// the benchmark runs from.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl...")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "compare: BENCHMARK.json: %v\n", err)
		return 1
	}
	return compare(def, args[0], args[1:], stdout, stderr)
}

// compare judges the runs logged for the parent commit against those of
// the change (several change files are read in order), paired by
// position per workload. It prints one row per end-to-end metric and
// workload and returns 1 when any regressed.
func compare(def benchmarkFile, parentPath string, changePaths []string, stdout, stderr io.Writer) int {
	parent, err := readRuns(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	change := map[string][]result{}
	for _, path := range changePaths {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 1
		}
		for w, rs := range runs {
			change[w] = append(change[w], rs...)
		}
	}

	var names []string
	for w := range parent {
		if len(change[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "compare: no workload has runs on both sides")
		return 1
	}
	values := func(rs []result, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	failures := func(rs []result) (failed, attempted int) {
		for _, r := range rs {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
		return
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, w := range names {
		pf, pa := failures(parent[w])
		cf, ca := failures(change[w])
		if cf*pa > pf*ca {
			fmt.Fprintf(stdout, "%-14s more failed operations: %d/%d vs %d/%d\n", w, cf, ca, pf, pa)
			code = 1
		}
		for _, m := range def.EndToEnd {
			p, c := values(parent[w], m.Name), values(change[w], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins, pairs := judge(p, c, m.Better == "lower", m.Bound)
			if v == regressed {
				code = 1
			}
			delta := 0.0
			if medP := median(p); medP != 0 {
				delta = 100 * (median(c) - medP) / medP
			}
			fmt.Fprintf(stdout, "%-14s %-12s %12.5g %12.5g %+7.1f%% %3d/%-3d  %s\n",
				w, m.Name, median(p), median(c), delta, wins, pairs, v)
		}
	}
	return code
}
