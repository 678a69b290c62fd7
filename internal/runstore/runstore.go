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
// A key is 64 lowercase hex digits, as every key function here builds
// it; a lookup of any other key is a miss and a write of one an error.
// Every lookup reads its entry with raw system calls (readEntry): one
// open that does not block on a FIFO, reads to end of file, one close,
// and no os.File. Simulation and fit lookups skip encoding/json: each
// hits only on exactly the bytes Put writes for its payload, checked
// and decoded in one pass (GetResult, GetFit), so any other spelling of
// the same JSON is an evicted miss. PutResult writes those bytes for a
// Result without encoding/json too; fits are written by Put, and
// calibrations use the generic Put and Get, which go through
// encoding/json.
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
	"strconv"
	"sync/atomic"
	"syscall"

	"repro/internal/atomicfile"
	"repro/internal/calibrator"
	"repro/internal/core"
	"repro/internal/jsonbytes"
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

// keyOf hashes "repro/<kind>@<sim.Version>\n" followed by each part and
// a newline, in one sha256.Sum256 call over a buffer that stays on the
// stack for the key kinds in use.
func keyOf(kind string, parts ...string) string {
	var buf [256]byte
	b := append(append(append(append(buf[:0], "repro/"...), kind...), '@'), sim.Version...)
	b = append(b, '\n')
	for _, p := range parts {
		b = append(append(b, p...), '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
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
	dir  string
	root string // dir cleaned, with a trailing separator

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
	return &Store{dir: dir, root: filepath.Clean(dir) + string(filepath.Separator)}, nil
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

// validKey reports whether key has the form of every key this package
// builds: 64 lowercase hex digits. Only such a key names an entry file.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the entry file for key, a valid key, sharded by its
// first byte.
func (s *Store) path(key string) string {
	return s.root + key[:2] + string(filepath.Separator) + key + ".json"
}

// Get looks key up and, on a hit, unmarshals the payload into v (which
// must be a pointer). The entry is read by readEntry and decoded,
// envelope and payload, in a single json.Unmarshal pass, so on a miss v
// may hold part of an unusable payload. An absent or unreadable entry
// is a miss. So is a corrupt or stale one — including a payload that no
// longer unmarshals into v, or a FIFO, which reads as empty — and its
// file is evicted so the next Put heals the entry. Get never returns an
// error today; the return is kept so callers are ready for store
// backends where lookups can genuinely fail. A malformed key (see
// validKey) is a miss.
func (s *Store) Get(key string, v any) (bool, error) {
	var buf [1024]byte
	data, ok := s.readEntry(key, buf[:0])
	if !ok {
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

// readEntry appends the entry file for key to buf, growing it as
// needed, and reports false if key is malformed or the file cannot be
// opened or read. It makes raw system calls: one open, reads until one
// returns 0 (end of file), and one close, retrying the open and each
// read on EINTR. A close is never retried: the descriptor is gone even
// when close reports EINTR. Without an os.File there is no poller
// registration and no finalizer.
//
// The file is opened O_NONBLOCK. Linux ignores the flag for regular
// files. It keeps a FIFO left at an entry path from blocking open(2)
// until a writer appears: the read sees no data and the FIFO is evicted
// like any other unusable entry.
func (s *Store) readEntry(key string, buf []byte) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	path := s.path(key)
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, false
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, false
		case n == 0:
			return buf, true
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// Put writes v under key atomically (atomicfile.Write): the entry is
// marshalled to a temp file in the destination directory and renamed
// into place, so readers only ever observe complete entries. A
// malformed key (see validKey) is an error.
func (s *Store) Put(key string, v any) error {
	data, err := json.Marshal(envelope{
		Format:  FormatVersion,
		Version: sim.Version,
		Key:     key,
		Payload: v,
	})
	if err != nil {
		return fmt.Errorf("runstore: marshal entry %.12s: %w", key, err)
	}
	return s.write(key, data)
}

// write stores one entry's bytes under key atomically.
func (s *Store) write(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("runstore: malformed key %q: want 64 lowercase hex digits", key)
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

// GetResult looks up a cached simulation Result. A hit is exactly the
// bytes PutResult writes: the envelope prefix for key (entryPrefix),
// the payload sim.Result.AppendEncode writes for the decoded Result, and
// a closing brace, with counters that validate. Anything else — an
// entry in another spelling of the same JSON, a payload that is not a
// Result, or a degenerate one (a run with no cycles or µops) — is
// evicted and reports a miss, like any other corruption. Reading one
// takes one file read and one pass over its bytes, without encoding/json.
func (s *Store) GetResult(key string) (*sim.Result, bool, error) {
	var buf [1024]byte
	data, ok := s.readEntry(key, buf[:0])
	if !ok {
		s.misses.Add(1)
		return nil, false, nil
	}
	r := new(sim.Result)
	var prefix [128]byte
	payload, ok := bytes.CutPrefix(data, entryPrefix(prefix[:0], key))
	if ok {
		payload, ok = bytes.CutSuffix(payload, []byte{'}'})
	}
	if !ok || !r.Decode(payload) || r.Counters.Validate() != nil {
		s.evict(key)
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return r, true, nil
}

// fitKeys are the bytes that precede each coefficient in the entry Put
// writes for a core.Params (see paramRefs), and fitEnd the bytes after
// the last one: the payload's brace and the envelope's.
var fitKeys = [...]string{
	`{"B1":`, `,"B2":`, `,"B3":`, `,"B4":`, `,"B5":`,
	`,"B6":`, `,"B7":`, `,"B8":`, `,"B9":`, `,"B10":`,
}

const fitEnd = "}}"

// paramRefs returns p's fields in the order of fitKeys.
func paramRefs(p *core.Params) [len(fitKeys)]*float64 {
	return [...]*float64{&p.B1, &p.B2, &p.B3, &p.B4, &p.B5, &p.B6, &p.B7, &p.B8, &p.B9, &p.B10}
}

// GetFit looks up the model parameters stored by Put(key, p) for a
// FitKey. A hit is exactly the bytes Put writes for a core.Params:
// entryPrefix for key, the ten coefficients in field order as
// encoding/json spells them, and fitEnd. Any other entry — another
// spelling, a missing or extra field, a payload of another type — is
// evicted and reported as a miss, so it is refitted and rewritten.
// Reading one takes one file read and one pass over its bytes, without
// encoding/json.
func (s *Store) GetFit(key string) (core.Params, bool, error) {
	var buf [512]byte
	data, ok := s.readEntry(key, buf[:0])
	if !ok {
		s.misses.Add(1)
		return core.Params{}, false, nil
	}
	p, ok := decodeFit(data, key)
	if !ok {
		s.evict(key)
		s.misses.Add(1)
		return core.Params{}, false, nil
	}
	s.hits.Add(1)
	return p, true, nil
}

// decodeFit returns the coefficients in data and reports whether data
// is exactly the entry Put(key, p) writes for them.
func decodeFit(data []byte, key string) (core.Params, bool) {
	var p core.Params
	var prefix [128]byte
	d, ok := bytes.CutPrefix(data, entryPrefix(prefix[:0], key))
	for i, f := range paramRefs(&p) {
		if !ok {
			return p, false
		}
		if d, ok = jsonbytes.CutLiteral(d, fitKeys[i]); ok {
			*f, d, ok = jsonbytes.CutFloat(d)
		}
	}
	return p, ok && string(d) == fitEnd
}

// PutResult stores a simulation Result under key: entryPrefix, the
// payload sim.Result.AppendEncode writes, and a closing brace. For the
// hex keys this package builds, which JSON writes unescaped, these are
// the bytes Put(key, r) writes, built without encoding/json.
func (s *Store) PutResult(key string, r *sim.Result) error {
	data, err := r.AppendEncode(entryPrefix(make([]byte, 0, 1024), key))
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return s.write(key, append(data, '}'))
}

// entryPrefix appends the envelope bytes that precede the payload under
// key, as json.Marshal writes them for an envelope.
func entryPrefix(b []byte, key string) []byte {
	b = append(b, `{"format":`...)
	b = strconv.AppendInt(b, FormatVersion, 10)
	b = append(append(b, `,"version":"`...), sim.Version...)
	b = append(append(b, `","key":"`...), key...)
	return append(b, `","payload":`...)
}

// evict removes a corrupt or stale entry (best effort).
func (s *Store) evict(key string) {
	os.Remove(s.path(key))
}
