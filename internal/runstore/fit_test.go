package runstore

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/uarch"
)

// fitInputs is a small fit input whose floats are all non-zero, so a
// one-ulp step moves every one of them to a different value.
func fitInputs() (uarch.ModelParams, []core.Observation, core.FitOptions) {
	obs := make([]core.Observation, 3)
	for i := range obs {
		x := float64(i + 1)
		obs[i] = core.Observation{
			Name: string(rune('a' + i)),
			Feat: core.Features{
				MpuL1I: 1e-3 * x, MpuL2I: 2e-4 * x, MpuLLCI: 3e-5 * x, MpuITLB: 4e-5 * x,
				MpuBr: 5e-3 * x, MpuDL1: 6e-3 * x, MpuLLCD: 7e-4 * x, MpuDTLB: 8e-5 * x, FP: 0.1 * x,
			},
			MeasuredCPI: 0.5 * x,
		}
	}
	return uarch.CoreI7().Params(), obs, core.FitOptions{}
}

// perturb changes v, a field of a fit input, to a nearby different
// value: integers by one, floats by one ulp, booleans flipped, strings
// renamed. A field of any other kind fails the test, so a new input
// field cannot go unchecked.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend perturb and FitKey", name, v.Kind())
	}
}

// eachLeaf calls visit on every non-struct field under v, named by its
// path from name.
func eachLeaf(v reflect.Value, name string, visit func(reflect.Value, string)) {
	if v.Kind() != reflect.Struct {
		visit(v, name)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		eachLeaf(v.Field(i), name+"."+v.Type().Field(i).Name, visit)
	}
}

// TestFitKeyCoversEveryInput changes each input of a fit in turn —
// every ModelParams and FitOptions field and every observation field,
// enumerated by reflection — and requires each change to change the key.
func TestFitKeyCoversEveryInput(t *testing.T) {
	mp, obs, opts := fitInputs()
	base := FitKey(mp, obs, opts)
	if FitKey(mp, obs, core.FitOptions{Starts: 12, Seed: 1, MaxIter: 4000}) != base {
		t.Error("the key must cover the options after defaults, not as given")
	}
	opts = opts.WithDefaults()
	changed := func(what string, key string) {
		t.Helper()
		if key == base {
			t.Errorf("changing %s left the fit key unchanged", what)
		}
	}

	for i := 0; i < reflect.TypeOf(mp).NumField(); i++ {
		m := mp
		name := "ModelParams." + reflect.TypeOf(mp).Field(i).Name
		perturb(t, name, reflect.ValueOf(&m).Elem().Field(i))
		changed(name, FitKey(m, obs, opts))
	}
	for i := 0; i < reflect.TypeOf(opts).NumField(); i++ {
		o := opts
		name := "FitOptions." + reflect.TypeOf(opts).Field(i).Name
		perturb(t, name, reflect.ValueOf(&o).Elem().Field(i))
		changed(name, FitKey(mp, obs, o))
	}

	for k := range obs {
		o := append([]core.Observation(nil), obs...)
		eachLeaf(reflect.ValueOf(&o[k]).Elem(), "obs", func(f reflect.Value, name string) {
			saved := reflect.ValueOf(f.Interface())
			perturb(t, name, f)
			changed(name, FitKey(mp, o, opts))
			f.Set(saved)
		})
	}

	swapped := append([]core.Observation(nil), obs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	changed("the observation order", FitKey(mp, swapped, opts))
	changed("the observation count", FitKey(mp, obs[:2], opts))
	// A name boundary moved between two observations.
	shifted := append([]core.Observation(nil), obs...)
	shifted[0].Name, shifted[1].Name = shifted[0].Name+shifted[1].Name, ""
	changed("the observation names' boundary", FitKey(mp, shifted, opts))
}

// TestFitRoundTrip: stored coefficients come back bit for bit, including
// values whose shortest decimal form is long or subnormal.
func TestFitRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mp, obs, opts := fitInputs()
	key := FitKey(mp, obs, opts)
	want := core.Params{
		B1: 1.0 / 3, B2: math.Nextafter(1, 2), B3: 0, B4: math.Pi * 1e7,
		B5: math.SmallestNonzeroFloat64, B6: 0.1, B7: 1e-300, B8: math.MaxFloat64,
		B9: math.Sqrt2, B10: 299.99999999999994,
	}
	if _, ok, err := st.GetFit(key); ok || err != nil {
		t.Fatalf("empty store: hit=%v err=%v, want a miss", ok, err)
	}
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.GetFit(key)
	if !ok || err != nil {
		t.Fatalf("get after put: hit=%v err=%v", ok, err)
	}
	g, w := got.Slice(), want.Slice()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", core.ParamNames()[i],
				g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", s)
	}
}

// TestGetFitRejectsOtherPayloads: an entry under a fit key whose payload
// is anything but the ten coefficients as Put writes them is a miss, and
// is evicted so the next fit rewrites it.
func TestGetFitRejectsOtherPayloads(t *testing.T) {
	m, w, r := simulateOne(t)
	mp, obs, opts := fitInputs()
	key := FitKey(mp, obs, opts)
	payloads := map[string]any{
		"a string":        "not params",
		"an array":        []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"an empty object": struct{}{},
		"one coefficient": map[string]float64{"B1": 1},
		"an extra field": struct {
			core.Params
			B11 float64
		}{B11: 1},
		"a string field":   map[string]string{"B1": "1"},
		"null":             nil,
		"a sim result":     r,
		"reordered fields": json.RawMessage(`{"B2":0,"B1":0,"B3":0,"B4":0,"B5":0,"B6":0,"B7":0,"B8":0,"B9":0,"B10":0}`),
	}
	for name, payload := range payloads {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, payload); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok, err := st.GetFit(key); ok || err != nil {
			t.Errorf("%s: hit=%v err=%v, want a clean miss", name, ok, err)
		}
		if _, err := os.Stat(st.path(key)); !os.IsNotExist(err) {
			t.Errorf("%s: entry not evicted", name)
		}
		if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
			t.Errorf("%s: stats = %+v, want 0 hits / 1 miss", name, s)
		}
	}
	// A fit entry read as a simulation is no hit either, whatever its
	// payload decodes to: the envelope's key names the entry.
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, core.Params{B1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.path(SimKey(m, w))), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(SimKey(m, w)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.GetResult(SimKey(m, w)); ok {
		t.Error("a fit entry filed under a sim key read as a hit")
	}
}

// FuzzStoreEnvelope writes arbitrary bytes as the entry file of an
// arbitrary key and reads it back as a fit and as a simulation: neither
// read may panic or report an error, a read that is not a hit must
// leave no file, and a simulation hit must be a valid measurement. A
// key that is not 64 lowercase hex digits names no file: every lookup
// of it misses and every write of it fails, and none touches the store.
func FuzzStoreEnvelope(f *testing.F) {
	mp, obs, opts := fitInputs()
	key := FitKey(mp, obs, opts)
	seeds, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	_, _, r := simulateOne(f)
	for _, payload := range []any{core.Params{B1: 1, B5: 0.25}, r, "x", nil} {
		if err := seeds.Put(key, payload); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(seeds.path(key))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, key)
		f.Add(data[:len(data)/2], key)
		// Well-formed entries in other spellings than Put's.
		for _, edit := range [][2]string{
			{`{"format":1`, ` {"format": 1`},
			{`"key"`, `"k\u0065y"`},
			{`"Uops"`, `"\u0055ops"`},
			{`"Cycles":`, `"Cycles":0`},
			{`,"payload":`, `,"payload":null,"payload":`},
		} {
			f.Add(bytes.Replace(data, []byte(edit[0]), []byte(edit[1]), 1), key)
		}
	}
	withTruth := *r
	withTruth.Truth.Cycles[0] = 5
	if err := seeds.PutResult(key, &withTruth); err != nil {
		f.Fatal(err)
	}
	if data, err := os.ReadFile(seeds.path(key)); err == nil {
		f.Add(bytes.Replace(data, []byte(`[5,`), []byte(`[5.0,`), 1), key)
	}
	f.Add([]byte(`{}`), key)
	f.Add([]byte(`{"format":1,"version":"sim-v1","key":"`+key+`","payload":{}}`), key)
	f.Add([]byte(`{"format":1,"version":"sim-v1","key":"`+key+`","payload":null}`), key)
	// The entry of another valid key, and keys that name no entry.
	f.Add([]byte(`{"format":1,"version":"sim-v1","key":"`+key[1:]+`0","payload":null}`), key[1:]+"0")
	for _, bad := range []string{"", "x", key[:2], key[:12], key[1:], key + "0",
		strings.ToUpper(key), "../" + key[3:], key[:63] + "g", key[:63] + "\x00"} {
		f.Add([]byte(`{}`), bad)
	}

	// Inputs run one at a time per process, so they share one store.
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		if !validKey(key) {
			checkMalformedKey(t, st, key)
			return
		}
		path := st.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, get := range []struct {
			name string
			read func() (bool, error)
		}{
			{"GetFit", func() (bool, error) { _, ok, err := st.GetFit(key); return ok, err }},
			{"GetResult", func() (bool, error) {
				r, ok, err := st.GetResult(key)
				if ok {
					if verr := r.Counters.Validate(); verr != nil {
						t.Errorf("GetResult: a hit that is no measurement: %v", verr)
					}
				}
				return ok, err
			}},
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ok, err := get.read()
			if err != nil {
				t.Errorf("%s: %v", get.name, err)
			}
			if _, serr := os.Stat(path); !ok && !os.IsNotExist(serr) {
				t.Errorf("%s: a miss left the entry file behind", get.name)
			}
		}
		os.Remove(path)
	})
}

// checkMalformedKey requires every lookup of key, which is not 64
// lowercase hex digits, to miss cleanly, every write of it to fail,
// and none of them to add anything to st's directory.
func checkMalformedKey(t *testing.T, st *Store, key string) {
	t.Helper()
	before := st.Stats()
	var p core.Params
	if ok, err := st.Get(key, &p); ok || err != nil {
		t.Errorf("Get(%q): hit=%v err=%v, want a clean miss", key, ok, err)
	}
	if _, ok, err := st.GetResult(key); ok || err != nil {
		t.Errorf("GetResult(%q): hit=%v err=%v, want a clean miss", key, ok, err)
	}
	if _, ok, err := st.GetFit(key); ok || err != nil {
		t.Errorf("GetFit(%q): hit=%v err=%v, want a clean miss", key, ok, err)
	}
	if err := st.Put(key, core.Params{B1: 1}); err == nil {
		t.Errorf("Put(%q) succeeded, want an error", key)
	}
	if err := st.PutResult(key, &sim.Result{}); err == nil {
		t.Errorf("PutResult(%q) succeeded, want an error", key)
	}
	if s := st.Stats(); s.Misses != before.Misses+3 || s.Hits != before.Hits || s.Puts != before.Puts {
		t.Errorf("stats went %+v → %+v, want 3 more misses and nothing else", before, s)
	}
	err := filepath.WalkDir(st.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && path != st.Dir() && !d.IsDir() {
			t.Errorf("key %q: found %s in the store", key, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
