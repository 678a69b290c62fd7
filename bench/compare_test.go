package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values alternating just below and above mid.
func around(mid, jitter float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mid + jitter*float64(i%3-1)
	}
	return xs
}

func TestJudge(t *testing.T) {
	parent := around(100, 1, 10) // IQR 2, spread 2%
	cases := []struct {
		name          string
		parent        []float64
		change        []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"clear gain, lower is better", parent, around(90, 1, 10), true, 0.1, improved},
		{"clear gain, higher is better", parent, around(110, 1, 10), false, 0.1, improved},
		{"same", parent, around(100, 1, 10), true, 0.1, unchanged},
		{"within bound", parent, around(105, 1, 10), true, 0.1, unchanged},
		{"past bound", parent, around(112, 1, 10), true, 0.1, regressed},
		{"past bound, higher is better", parent, around(88, 1, 10), false, 0.1, regressed},
		{"gain within parent IQR", parent, around(98.5, 1, 10), true, 0.1, unchanged},
		{"too few pairs", parent[:9], around(90, 1, 9), true, 0.1, unchanged},
		{"noisier than bound", around(100, 20, 10), around(99, 20, 10), true, 0.1, unresolved},
		{"noisy but every run better", around(100, 20, 10), around(30, 5, 9), true, 0.1, unchanged},
	}
	for _, c := range cases {
		got, _, _ := judge(c.parent, c.change, c.lowerIsBetter, c.bound)
		if got != c.want {
			t.Errorf("%s: judge = %s; want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	parent := around(100, 1, 10)
	change := around(90, 1, 10)
	change[0], change[1] = 200, 200 // two lost pairs: 8/10 wins
	if got, wins, pairs := judge(parent, change, true, 0.25); got == improved || wins != 8 || pairs != 10 {
		t.Errorf("judge = %s with %d/%d wins; want no improvement at 8/10", got, wins, pairs)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency []float64) string {
		var b bytes.Buffer
		for _, v := range latency {
			line, err := json.Marshal(loggedRun{Workload: "w", Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"latency_ms": {Value: v, Unit: "ms"}}}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var def benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), &def); err != nil {
		t.Fatal(err)
	}
	parent := write("parent.jsonl", around(100, 1, 10))
	for _, c := range []struct {
		change   []float64
		wantCode int
		verdict  string
	}{
		{around(80, 1, 10), 0, improved},
		{around(130, 1, 10), 1, regressed},
	} {
		change := write("change.jsonl", c.change)
		var out, errOut bytes.Buffer
		code := compare(def, parent, []string{change}, &out, &errOut)
		if code != c.wantCode || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("compare exit %d, output:\n%s%s\nwant exit %d and %s", code, &out, &errOut, c.wantCode, c.verdict)
		}
	}
}
