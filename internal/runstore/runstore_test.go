package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// simulateOne produces a small but real Result to cache.
func simulateOne(t testing.TB) (*uarch.Machine, trace.Spec, *sim.Result) {
	t.Helper()
	m := uarch.CoreTwo()
	suite := suites.CPU2000Like(suites.Options{NumOps: 20000})
	w := suite.Workloads[0]
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(trace.Materialize(w))
	if err != nil {
		t.Fatal(err)
	}
	return m, w, r
}

func TestResultRoundTrip(t *testing.T) {
	m, w, r := simulateOne(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := SimKey(m, w)

	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Fatalf("empty store: got hit=%v err=%v", ok, err)
	}
	if err := st.PutResult(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.GetResult(key)
	if err != nil || !ok {
		t.Fatalf("get after put: hit=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", s)
	}
	if got := st.Stats().HitRate(); got != 0.5 {
		t.Errorf("hit rate %v, want 0.5", got)
	}
}

func TestCorruptEntryIsMissAndEvicted(t *testing.T) {
	m, w, r := simulateOne(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := SimKey(m, w)
	if err := st.PutResult(key, r); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry mid-JSON, as a crashed non-atomic writer would.
	if err := os.WriteFile(st.path(key), []byte(`{"format":1,"ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Fatalf("corrupt entry: got hit=%v err=%v, want clean miss", ok, err)
	}
	if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not evicted")
	}
	// The store heals: a fresh Put serves hits again.
	if err := st.PutResult(key, r); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := st.GetResult(key); !ok || !reflect.DeepEqual(got, r) {
		t.Error("store did not heal after eviction")
	}
}

func TestVersionMismatchIsMiss(t *testing.T) {
	m, w, r := simulateOne(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := SimKey(m, w)
	if err := st.PutResult(key, r); err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry claiming an older simulator version.
	data, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = "sim-v0"
	stale, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(key), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Fatalf("stale-version entry: got hit=%v err=%v, want miss", ok, err)
	}

	// Same for a future envelope format.
	e.Version = sim.Version
	e.Format = FormatVersion + 1
	future, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(key), future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Fatalf("future-format entry: got hit=%v err=%v, want miss", ok, err)
	}
}

func TestUndecodablePayloadIsMissAndEvicted(t *testing.T) {
	m, w, _ := simulateOne(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := SimKey(m, w)
	// Valid envelope, but the payload is not a Result.
	if err := st.Put(key, "not a result"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Fatalf("non-Result payload: got hit=%v err=%v, want clean miss", ok, err)
	}
	if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
		t.Error("undecodable entry not evicted")
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 0 hits / 1 miss", s)
	}
}

// TestDegenerateResultIsMissAndEvicted: a payload that decodes as a
// Result but is no measurement — null, empty, or counters that fail
// perfctr.Counters.Validate — is a miss, and the entry is evicted so
// the next simulation rewrites it.
func TestDegenerateResultIsMissAndEvicted(t *testing.T) {
	m, w, _ := simulateOne(t)
	key := SimKey(m, w)
	for _, payload := range []string{
		`null`,
		`{}`,
		`{"Counters":{"Uops":5}}`,
		`{"Counters":{"Cycles":9,"Uops":5,"Instructions":4,"BranchMispredicts":2,"Branches":1}}`,
	} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.GetResult(key); ok || err != nil {
			t.Errorf("payload %s: got hit=%v err=%v, want clean miss", payload, ok, err)
		}
		if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
			t.Errorf("payload %s: entry not evicted", payload)
		}
		if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
			t.Errorf("payload %s: stats = %+v, want 0 hits / 1 miss", payload, s)
		}
	}
}

// TestPutResultWritesPutBytes: PutResult's literal envelope is the
// entry the generic Put writes for the same Result through
// encoding/json, so stores filled either way read the same.
func TestPutResultWritesPutBytes(t *testing.T) {
	m, w, r := simulateOne(t)
	key := SimKey(m, w)
	entry := func(put func(*Store) error) []byte {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := put(st); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(st.path(key))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	got := entry(func(st *Store) error { return st.PutResult(key, r) })
	want := entry(func(st *Store) error { return st.Put(key, r) })
	if string(got) != string(want) {
		t.Errorf("PutResult wrote\n%s\nPut writes\n%s", got, want)
	}
}

// TestNonCanonicalResultIsMissAndEvicted: an entry that encoding/json
// reads as the stored Result, but that is not the bytes PutResult
// writes, is an evicted miss.
func TestNonCanonicalResultIsMissAndEvicted(t *testing.T) {
	m, w, r := simulateOne(t)
	key := SimKey(m, w)
	r.Truth.Cycles[sim.CompITLB] = 5 // a float that "5.0" also spells
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutResult(key, r); err != nil {
		t.Fatal(err)
	}
	canon, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	s := string(canon)
	prefix := s[:strings.Index(s, `"payload":`)]
	payload := s[len(prefix)+len(`"payload":`) : len(s)-1]
	for name, entry := range map[string]string{
		"leading whitespace":     " " + s,
		"trailing newline":       s + "\n",
		"space after a colon":    strings.Replace(s, `"format":1`, `"format": 1`, 1),
		"reordered keys":         `{"payload":` + payload + `,` + prefix[1:len(prefix)-1] + `}`,
		"5.0 for 5":              strings.Replace(s, `,5,`, `,5.0,`, 1),
		"an escaped key":         strings.Replace(s, `"key"`, `"k\u0065y"`, 1),
		"an escaped payload key": strings.Replace(s, `"Uops"`, `"\u0055ops"`, 1),
	} {
		if entry == s {
			t.Fatalf("%s: the edit left the entry as it was", name)
		}
		var e struct{ Payload sim.Result }
		if err := json.Unmarshal([]byte(entry), &e); err != nil || !reflect.DeepEqual(&e.Payload, r) {
			t.Fatalf("%s: json.Unmarshal does not read the stored Result back (%v)", name, err)
		}
		if err := os.WriteFile(st.path(key), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		before := st.Stats()
		if _, ok, err := st.GetResult(key); ok || err != nil {
			t.Errorf("%s: hit=%v err=%v, want a clean miss", name, ok, err)
		}
		if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
			t.Errorf("%s: entry not evicted", name)
		}
		if after := st.Stats(); after.Hits != before.Hits || after.Misses != before.Misses+1 {
			t.Errorf("%s: stats %+v → %+v, want one more miss", name, before, after)
		}
	}
}

// simKeyCanaryDigest is SimKey of core2 running canarySpec. Every stored
// simulation is filed under a key built this way, so if this digest
// changes every existing run store goes cold. Change it only together
// with a deliberate change to sim.Version, the key format, core2's
// configuration or the Spec fields.
const simKeyCanaryDigest = "fe0fbab489757da47a048e86d31d048932ca565437a89e68259fa0751c53c79e"

var canarySpec = trace.Spec{Name: "canary", Seed: 7, NumOps: 5000, LoadFrac: 0.25, StoreFrac: 0.1,
	BranchHardFrac: 0.2, CodeFootprint: 32768, CodeLocality: 0.8,
	DataFootprint: 1 << 20, DataLocality: 0.6, DepDistMean: 8}

// TestSimKeyCanary pins the sim key bytes, both as SimKey builds them
// and as SimKeyOf does from the two hashes a batch computes once.
func TestSimKeyCanary(t *testing.T) {
	m := uarch.CoreTwo()
	if got := SimKey(m, canarySpec); got != simKeyCanaryDigest {
		t.Errorf("SimKey = %s, want %s: every stored simulation would miss", got, simKeyCanaryDigest)
	}
	if got := SimKeyOf(m.ConfigHash(), canarySpec.ConfigHash()); got != simKeyCanaryDigest {
		t.Errorf("SimKeyOf = %s, want %s", got, simKeyCanaryDigest)
	}
}

func TestKeySensitivity(t *testing.T) {
	m := uarch.CoreTwo()
	suite := suites.CPU2000Like(suites.Options{NumOps: 20000})
	w := suite.Workloads[0]

	if SimKey(m, w) != SimKey(uarch.CoreTwo(), w) {
		t.Error("identical config+spec must hash equal")
	}
	m2 := uarch.CoreTwo()
	m2.MemLat++
	if SimKey(m, w) == SimKey(m2, w) {
		t.Error("machine change must change the key")
	}
	w2 := w
	w2.NumOps++
	if SimKey(m, w) == SimKey(m, w2) {
		t.Error("spec change must change the key")
	}
	if SimKey(m, w) == CalibrationKey(m) {
		t.Error("kinds must not collide")
	}
	if CalibrationKey(m) == CalibrationKey(m2) {
		t.Error("calibration key must track the machine config")
	}
}

func TestGenericPutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type payload struct {
		A int
		B string
	}
	key := CalibrationKey(uarch.PentiumFour())
	want := payload{A: 42, B: "walk"}
	if err := st.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	var got payload
	hit, err := st.Get(key, &got)
	if err != nil || !hit {
		t.Fatalf("get: hit=%v err=%v", hit, err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, w, r := simulateOne(t)
	if err := st.PutResult(SimKey(m, w), r); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("want error for empty dir")
	}
}
