// Command calibrate estimates a machine's cache, memory and TLB miss
// latencies with pointer-chase microbenchmarks — the repository's
// equivalent of the paper's Calibrator tool.
//
// Usage:
//
//	calibrate [-machine pentium4|core2|corei7] [-sweep] [-store DIR]
//
// With -store DIR the calibration result is cached content-addressed on
// the machine configuration, so re-calibrating an unchanged machine is
// instant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/calibrator"
	"repro/internal/runstore"
	"repro/internal/uarch"
)

func main() {
	machine := flag.String("machine", "core2", "machine to calibrate: "+strings.Join(uarch.Names(), ", "))
	sweep := flag.Bool("sweep", false, "also print the raw footprint sweep")
	storeDir := flag.String("store", "", "run-store directory for cached calibrations (empty = no cache)")
	flag.Parse()

	if err := realMain(os.Stdout, *machine, *sweep, *storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func realMain(out io.Writer, name string, sweep bool, storeDir string) error {
	m, err := uarch.ByName(name)
	if err != nil {
		return err
	}
	var store *runstore.Store
	if storeDir != "" {
		if store, err = runstore.Open(storeDir); err != nil {
			return err
		}
	}
	var res *calibrator.Result
	if store != nil {
		var cached calibrator.Result
		hit, err := store.Get(runstore.CalibrationKey(m), &cached)
		if err != nil {
			return err
		}
		if hit {
			fmt.Fprintf(os.Stderr, "run store %s: calibration of %s cached\n", store.Dir(), m.Name)
			res = &cached
		}
	}
	if res == nil {
		if res, err = calibrator.Calibrate(m); err != nil {
			return err
		}
		if store != nil {
			if err := store.Put(runstore.CalibrationKey(m), res); err != nil {
				return err
			}
		}
	}
	e := res.Estimates
	fmt.Fprintf(out, "calibration of %s:\n", m.Name)
	fmt.Fprintf(out, "  L1 load-to-use : %4d cycles (configured %d)\n", e.L1Lat, m.L1D.LatCycles)
	fmt.Fprintf(out, "  L2 latency     : %4d cycles (configured %d)\n", e.L2Lat, m.L2.LatCycles)
	if m.HasL3() {
		fmt.Fprintf(out, "  L3 latency     : %4d cycles (configured %d)\n", e.L3Lat, m.L3.LatCycles)
	}
	fmt.Fprintf(out, "  memory latency : %4d cycles (configured %d)\n", e.MemLat, m.MemLat)
	fmt.Fprintf(out, "  TLB miss walk  : %4d cycles (configured %d)\n", e.TLBLat, m.DTLB.MissLat)
	if sweep {
		fmt.Fprintln(out, "\nfootprint sweep (working set → median load-to-use latency):")
		for _, p := range res.Sweep {
			unit, v := "KB", p.FootprintBytes>>10
			if p.FootprintBytes >= 1<<20 {
				unit, v = "MB", p.FootprintBytes>>20
			}
			fmt.Fprintf(out, "  %6d%s  %7.1f cycles\n", v, unit, p.MedianLat)
		}
	}
	return nil
}
