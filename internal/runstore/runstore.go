// Package runstore is a disk-backed, content-addressed cache of
// simulation results and the artifacts derived from them. An entry is
// keyed by a stable hash of everything that determines its value, so a
// hit is always exact: the cached value is byte-for-byte what
// recomputing it would produce. Any change to an input changes the key
// and cold-misses instead of returning stale data. There are three key
// kinds, each covering sim.Version:
//
//   - SimKey: one simulation, keyed by the full machine configuration
//     and the full workload spec;
//   - CalibrationKey: one latency calibration, keyed by the machine
//     configuration and calibrator.Version;
//   - FitKey: one model fit, keyed by the machine's model parameters,
//     every observation bit for bit in fit order, the fit options after
//     defaults, and core.FitVersion. Bump core.FitVersion with any change
//     to the regression or the model equations; its canary test fails
//     until then.
//
// The store is a directory of JSON envelope files sharded by key prefix
// (dir/ab/abcd….json). Writes are atomic (temp file + rename in the same
// directory), so a crashed or concurrent writer can never leave a
// half-written entry visible; concurrent writers of the same key race
// benignly because both write identical content. Corrupt, truncated, or
// version-mismatched entries are treated as misses and evicted so the
// next Put rewrites them.
//
// experiments.Lab consults the store before dispatching simulations and
// before fitting, which makes every downstream experiment incremental: a
// warm rerun of cmd/experiments, cmd/mecpi, or the top-level benchmarks
// performs zero new simulations and zero regressions.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/calibrator"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// FormatVersion is the on-disk envelope format. Entries written with a
// different format version are treated as misses.
const FormatVersion = 1

// SimKey returns the content address of simulating spec on machine m with
// the current simulator. The spec must be exactly the one handed to the
// trace generator.
func SimKey(m *uarch.Machine, spec trace.Spec) string {
	return SimKeyOf(m.ConfigHash(), spec.ConfigHash())
}

// SimKeyOf is SimKey from the machine's ConfigHash and the spec's
// ConfigHash, for callers that key many runs over a few machines and
// specs and hash each of them once.
func SimKeyOf(machineHash, specHash string) string {
	return keyOf("sim", machineHash, specHash)
}

// CalibrationKey returns the content address of calibrating machine m.
// Calibration runs microbenchmarks against the simulated hierarchy, so
// its result depends on the machine configuration, the simulator
// version, and the calibration algorithm (calibrator.Version).
func CalibrationKey(m *uarch.Machine) string {
	return keyOf("calibration@"+calibrator.Version, m.ConfigHash())
}

// FitKey returns the content address of fitting a model to obs (in the
// order given) on a machine with model parameters mp. The fit is a pure
// function of exactly these inputs, the options after defaults, and the
// algorithm (core.FitVersion), so a stored fit is bit-identical to
// refitting. Floats are hashed as their IEEE-754 bits: a one-ulp change
// to any observation is a different fit.
func FitKey(mp uarch.ModelParams, obs []core.Observation, opts core.FitOptions) string {
	opts = opts.WithDefaults()
	// 14 fixed words, then per observation 11 words and a short name.
	b := make([]byte, 0, 8*14+len(obs)*(8*11+16))
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	for _, v := range [...]int{mp.DispatchWidth, mp.FrontEndDepth, mp.L2Lat, mp.L3Lat, mp.MemLat, mp.TLBLat} {
		u(uint64(v))
	}
	u(uint64(len(obs)))
	for i := range obs {
		o := &obs[i]
		u(uint64(len(o.Name)))
		b = append(b, o.Name...)
		ft := &o.Feat
		for _, v := range [...]float64{ft.MpuL1I, ft.MpuL2I, ft.MpuLLCI, ft.MpuITLB,
			ft.MpuBr, ft.MpuDL1, ft.MpuLLCD, ft.MpuDTLB, ft.FP, o.MeasuredCPI} {
			f(v)
		}
	}
	u(uint64(opts.Starts))
	u(opts.Seed)
	u(uint64(opts.MaxIter))
	flag(opts.AdditiveBranch)
	flag(opts.ConstantMLP)
	flag(opts.UnscaledStall)
	flag(opts.NoWindowCap)
	sum := sha256.Sum256(b)
	return keyOf("fit@"+core.FitVersion, hex.EncodeToString(sum[:]))
}

func keyOf(kind string, parts ...string) string {
	h := sha256.New()
	io.WriteString(h, "repro/"+kind+"@"+sim.Version+"\n")
	for _, p := range parts {
		io.WriteString(h, p+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts store interactions since Open.
type Stats struct {
	Hits   int64 // Get found a valid entry
	Misses int64 // Get found nothing usable (absent, corrupt, or stale)
	Puts   int64 // entries written
}

// HitRate returns hits as a fraction of lookups (0 when no lookups).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Store is a content-addressed result cache rooted at one directory.
// Safe for concurrent use.
type Store struct {
	dir string

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

// envelope is the on-disk entry framing. Key and Version are stored
// redundantly so a mis-filed or stale entry is detected on read even
// though the key already encodes the version. Payload holds the
// caller's value: Put marshals it in place, and Get points it at the
// caller's pointer so the envelope and the payload decode in one pass.
type envelope struct {
	Format  int    `json:"format"`
	Version string `json:"version"`
	Key     string `json:"key"`
	Payload any    `json:"payload"`
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the interaction counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
	}
}

// path returns the entry file for key, sharded by its first byte.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get looks key up and, on a hit, unmarshals the payload into v (which
// must be a pointer). The envelope and the payload decode in a single
// pass, so on a miss v may hold part of an unusable payload. Absent,
// corrupt, and stale entries all report a miss — including a payload
// that no longer unmarshals into v — and the unusable file is evicted
// so the next Put heals the entry. Get never returns an error today;
// the return is kept so callers are ready for store backends where
// lookups can genuinely fail.
func (s *Store) Get(key string, v any) (bool, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return false, nil
	}
	e := envelope{Payload: v}
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Format != FormatVersion || e.Version != sim.Version || e.Key != key {
		s.evict(key)
		s.misses.Add(1)
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

// Put writes v under key atomically (atomicfile.Write): the entry is
// marshalled to a temp file in the destination directory and renamed
// into place, so readers only ever observe complete entries.
func (s *Store) Put(key string, v any) error {
	data, err := json.Marshal(envelope{
		Format:  FormatVersion,
		Version: sim.Version,
		Key:     key,
		Payload: v,
	})
	if err != nil {
		return fmt.Errorf("runstore: marshal entry %s: %w", key[:12], err)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	step, err := atomicfile.Write(dst, "."+key[:12]+".tmp-*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	switch {
	case err == nil:
	case step == atomicfile.Create:
		return fmt.Errorf("runstore: %w", err)
	case step == atomicfile.Rename:
		return fmt.Errorf("runstore: commit %s: %w", key[:12], err)
	default:
		return fmt.Errorf("runstore: write %s: %w", key[:12], err)
	}
	s.puts.Add(1)
	return nil
}

// GetResult looks up a cached simulation Result, decoding the entry
// straight into it. Only a Result whose counters validate is a hit:
// entries that no longer decode as a Result, or decode to a degenerate
// one (a null or empty payload, a run with no cycles or µops), are
// evicted and report a miss, like any other corruption.
func (s *Store) GetResult(key string) (*sim.Result, bool, error) {
	r := new(sim.Result)
	ok, err := s.Get(key, r)
	if !ok || err != nil {
		return nil, false, err
	}
	if r.Counters.Validate() != nil {
		s.reject(key)
		return nil, false, nil
	}
	return r, true, nil
}

// GetFit looks up the model parameters stored by Put(key, p) for a
// FitKey. Only a payload in exactly the form Put writes for a
// core.Params — all ten coefficients, nothing else — is a hit; any other
// payload is evicted and reported as a miss, so it is refitted and
// rewritten.
func (s *Store) GetFit(key string) (core.Params, bool, error) {
	var raw json.RawMessage
	ok, err := s.Get(key, &raw)
	if !ok || err != nil {
		return core.Params{}, false, err
	}
	var p core.Params
	if err := json.Unmarshal(raw, &p); err == nil {
		// Decoded JSON numbers are finite, so marshalling cannot fail.
		if canon, _ := json.Marshal(p); bytes.Equal(canon, raw) {
			return p, true, nil
		}
	}
	s.reject(key)
	return core.Params{}, false, nil
}

// PutResult stores a simulation Result under key using sim's
// deterministic encoding.
func (s *Store) PutResult(key string, r *sim.Result) error {
	data, err := r.Encode()
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return s.Put(key, json.RawMessage(data))
}

// reject turns a hit whose payload turned out unusable into an evicted
// miss.
func (s *Store) reject(key string) {
	s.evict(key)
	s.hits.Add(-1)
	s.misses.Add(1)
}

// evict removes a corrupt or stale entry (best effort).
func (s *Store) evict(key string) {
	os.Remove(s.path(key))
}
