package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestGoldens pins what mecpi prints, byte for byte, for core2 on
// cpu2006 at 20000 µops and 2 fit starts: the fitted model with the
// suite summary, one workload's stack next to the ground truth, and the
// characterization. The cases share one run store, so the later ones
// read the first one's runs back. Regenerate with
//
//	go test ./cmd/mecpi -update-golden
//
// only for an intentional report-format or simulator/model change.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cpu2006")
	}
	store := t.TempDir()
	cases := []struct {
		name, workload      string
		truth, characterize bool
	}{
		{"summary", "", false, false},
		{"mcf_truth", "mcf", true, false},
		{"characterize", "", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := realMain(&out, "core2", "cpu2006", c.workload, 20000, 2, c.truth, c.characterize, store); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, c.name+"_core2_cpu2006_ops20000.golden", out.Bytes())
		})
	}
}

func TestRejectsUnknownNames(t *testing.T) {
	for _, args := range [][3]string{{"atom", "cpu2006", ""}, {"core2", "spec95", ""}, {"core2", "cpu2006", "nosuch"}} {
		if err := realMain(&bytes.Buffer{}, args[0], args[1], args[2], 2000, 2, false, false, ""); err == nil {
			t.Errorf("realMain(%q, %q, %q) succeeded", args[0], args[1], args[2])
		}
	}
}
