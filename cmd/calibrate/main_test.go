package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestGoldens pins what calibrate prints for corei7, byte for byte,
// without and with -sweep. Both run on one run store, so the second
// prints the calibration the first stored: a cached result must print
// exactly what a fresh one does. Regenerate with
//
//	go test ./cmd/calibrate -update-golden
//
// only for an intentional report-format or calibrator change.
func TestGoldens(t *testing.T) {
	store := t.TempDir()
	for _, c := range []struct {
		name  string
		sweep bool
	}{
		{"corei7", false},
		{"corei7_sweep", true},
	} {
		var out bytes.Buffer
		if err := realMain(&out, "corei7", c.sweep, store); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, c.name+".golden", out.Bytes())
	}
}

func TestRejectsUnknownMachine(t *testing.T) {
	if err := realMain(&bytes.Buffer{}, "atom", false, ""); err == nil {
		t.Error("unknown machine accepted")
	}
}
