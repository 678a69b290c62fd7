// Package atomicfile writes files so that readers never observe a torn
// one: the content goes to a temp file in the destination's directory,
// which is renamed onto the destination only once it is complete. The
// run store's entries, exported trace files and persisted job artifacts
// all go through Write.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Step names the stage of a Write that failed.
type Step uint8

const (
	Create Step = iota // creating the temp file
	Fill               // the caller's fill writing the content
	Close              // closing the temp file
	Rename             // renaming the temp file onto the destination
)

// Write creates or replaces path atomically. fill writes the content
// into a temp file created in path's directory under pattern (see
// os.CreateTemp), which is then closed and renamed onto path, so a
// reader sees either the old file or the complete new one. On failure
// the temp file is removed, path is left as it was, and Write returns
// the failed step with that step's own error, unwrapped, so each caller
// words its errors as it sees fit; the step means nothing on success.
func Write(path, pattern string, fill func(io.Writer) error) (Step, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return Create, err
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Fill, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return Close, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return Rename, err
	}
	return Rename, nil
}
