package suites

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// ErrUnknownSuite is wrapped by ByName failures for names absent from
// the registry. Callers (the serving layer's error classifier) match it
// with errors.Is — never by error text, which a suite name could
// collide with.
var ErrUnknownSuite = errors.New("unknown suite")

// Source classifies where a suite's workloads come from.
type Source string

const (
	// SourceBuiltin marks suites whose workloads are generated from
	// curated Specs (the paper suites and synthetic families).
	SourceBuiltin Source = "builtin"
	// SourceFile marks suites whose workloads are recorded trace files
	// imported from disk.
	SourceFile Source = "file"
)

// FilePrefix is the dynamic suite-spec form: "file:PATH" resolves PATH
// (one .mtrc trace file, or a directory of them) as a suite without
// registration, anywhere a suite name is accepted — campaigns, sweeps,
// plans, and the daemon.
const FilePrefix = "file:"

// The suite registry maps names to suite builders, mirroring the machine
// registry in internal/uarch: experiments name suites declaratively and
// the registry resolves them, so new workload collections plug in
// without touching the experiment stack. The paper suites and synthetic
// families self-register in init; trace files join via RegisterFile or
// the "file:" spec form.
var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

type entry struct {
	build  func(Options) (Suite, error)
	source Source
}

// Builder instantiates a suite with the given options.
type Builder func(Options) Suite

// Register adds a named builtin suite builder. The builder must produce
// suites whose Name matches the registered name. Registering a name
// twice is an error.
func Register(name string, b Builder) error {
	if b == nil {
		return fmt.Errorf("suites: nil builder for suite %q", name)
	}
	return register(name, entry{
		build:  func(opts Options) (Suite, error) { return b(opts), nil },
		source: SourceBuiltin,
	})
}

// MustRegister is Register, panicking on error.
func MustRegister(name string, b Builder) {
	if err := Register(name, b); err != nil {
		panic(err)
	}
}

// RegisterFile adds a named file-backed suite from path — one .mtrc
// trace file or a directory of them. The files are read and verified
// now (checksums included), and the resulting workload set is cached:
// listing the suite later costs nothing, and a file rewritten after
// registration is caught at materialization time by the content-hash
// check. File suites carry their own recorded streams, so the builder
// ignores Options.NumOps and rejects non-zero SeedBase.
func RegisterFile(name, path string) error {
	suite, err := loadFileSuite(path)
	if err != nil {
		return err
	}
	suite.Name = name
	return register(name, entry{
		build: func(opts Options) (Suite, error) {
			if opts.SeedBase != 0 {
				return Suite{}, fmt.Errorf("suites: %s: file-backed suites carry recorded traces and cannot be re-seeded (SeedBase=%d)", name, opts.SeedBase)
			}
			return suite, nil
		},
		source: SourceFile,
	})
}

func register(name string, e entry) error {
	if name == "" {
		return fmt.Errorf("suites: cannot register suite with empty name")
	}
	if strings.HasPrefix(name, FilePrefix) {
		return fmt.Errorf("suites: name %q collides with the %q spec form", name, FilePrefix)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("suites: suite %q already registered", name)
	}
	registry[name] = e
	return nil
}

// Names returns all registered suite names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName instantiates the suite with the given options. Besides
// registered names it accepts the dynamic "file:PATH" form, which
// resolves PATH as a file-backed suite on the spot.
func ByName(name string, opts Options) (Suite, error) {
	if path, ok := strings.CutPrefix(name, FilePrefix); ok {
		if opts.SeedBase != 0 {
			return Suite{}, fmt.Errorf("suites: %s: file-backed suites carry recorded traces and cannot be re-seeded (SeedBase=%d)", name, opts.SeedBase)
		}
		s, err := loadFileSuite(path)
		if err != nil {
			return Suite{}, err
		}
		s.Name = name
		return s, nil
	}
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Suite{}, fmt.Errorf("suites: %w %q (registered: %v)", ErrUnknownSuite, name, Names())
	}
	s, err := e.build(opts)
	if err != nil {
		return Suite{}, err
	}
	if s.Name != name {
		return Suite{}, fmt.Errorf("suites: builder for %q produced suite named %q", name, s.Name)
	}
	return s, nil
}

// SuiteSource classifies a suite name without instantiating it:
// SourceFile for "file:" specs and registered file suites, SourceBuiltin
// for generated ones, ErrUnknownSuite otherwise.
func SuiteSource(name string) (Source, error) {
	if strings.HasPrefix(name, FilePrefix) {
		return SourceFile, nil
	}
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("suites: %w %q", ErrUnknownSuite, name)
	}
	return e.source, nil
}

// IsFileBacked reports whether the name denotes a file-backed suite —
// either the "file:" spec form or a RegisterFile registration. Unknown
// names report false; resolution errors surface later in ByName.
func IsFileBacked(name string) bool {
	src, err := SuiteSource(name)
	return err == nil && src == SourceFile
}

// loadFileSuite resolves path into a suite: a single trace file becomes
// a one-workload suite, a directory contributes every *.mtrc file in
// sorted name order. Each file is fully verified (ReadFileSpec streams
// it through the checksum) but nothing is materialized. The files are
// verified on up to GOMAXPROCS goroutines; the suite keeps the sorted
// order, and an error names the first failing file in that order.
func loadFileSuite(path string) (Suite, error) {
	info, err := os.Stat(path)
	if err != nil {
		return Suite{}, fmt.Errorf("suites: %w", err)
	}
	var files []string
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*"+trace.FileExt))
		if err != nil {
			return Suite{}, fmt.Errorf("suites: %s: %w", path, err)
		}
		if len(files) == 0 {
			return Suite{}, fmt.Errorf("suites: %s: no %s trace files in directory", path, trace.FileExt)
		}
		sort.Strings(files)
	} else {
		files = []string{path}
	}

	specs := make([]trace.Spec, len(files))
	errs := make([]error, len(files))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(files)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(files); i = int(next.Add(1) - 1) {
				specs[i], errs[i] = trace.ReadFileSpec(files[i])
			}
		}()
	}
	wg.Wait()

	s := Suite{Name: FilePrefix + path, Workloads: specs}
	seen := make(map[string]string, len(files))
	for i, f := range files {
		if errs[i] != nil {
			return Suite{}, fmt.Errorf("suites: %w", errs[i])
		}
		name := specs[i].Name
		if prev, dup := seen[name]; dup {
			return Suite{}, fmt.Errorf("suites: %s: workload %q appears in both %s and %s", path, name, prev, f)
		}
		seen[name] = f
	}
	return s, nil
}

func init() {
	MustRegister("cpu2000", CPU2000Like)
	MustRegister("cpu2006", CPU2006Like)
	MustRegister("phased", PhasedSuite)
	MustRegister("bursty", BurstySuite)
}
