package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fullSpec is testSpec with every optional field set, so perturbing any
// field of it moves a value that AppendJSON writes.
func fullSpec() Spec {
	s := testSpec()
	s.HotBytes, s.HotFrac = 1<<16, 0.85
	s.Phases = []Phase{
		{Frac: 0.4, DataLocality: 0.9, PointerChaseFrac: 0.05, BranchNoise: 0.1},
		{Frac: 0.6, DataLocality: 0.2, PointerChaseFrac: 0.4, BranchNoise: 0.3},
	}
	s.BurstFrac, s.BurstLen = 0.2, 16
	s.Content = "8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4"
	s.SourceFile = "traces/w.mtrc"
	return s
}

// perturbSpec changes v, a leaf field of a Spec, to a nearby different
// value: integers by one, floats by one ulp, strings renamed. A field of
// any other kind fails the test, so a new Spec field cannot go
// unchecked.
func perturbSpec(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend perturbSpec and AppendJSON", name, v.Kind())
	}
}

// TestSpecKeyCoversEveryField changes every Spec field and every Phase
// field in turn, enumerated by reflection, from a spec with every field
// set and from the zero spec, and requires each change to change
// ConfigHash — except SourceFile, which names where a trace was read
// from and must not change its identity.
func TestSpecKeyCoversEveryField(t *testing.T) {
	for _, base := range []Spec{fullSpec(), {}} {
		want := base.ConfigHash()
		check := func(name string, s Spec) {
			t.Helper()
			changed := s.ConfigHash() != want
			if name == "SourceFile" && changed {
				t.Errorf("changing SourceFile changed ConfigHash")
			} else if name != "SourceFile" && !changed {
				t.Errorf("changing %s (base %q) left ConfigHash unchanged", name, base.Name)
			}
		}
		typ := reflect.TypeOf(base)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			s := base
			s.Phases = append([]Phase(nil), base.Phases...)
			f := reflect.ValueOf(&s).Elem().Field(i)
			if f.Kind() != reflect.Slice {
				perturbSpec(t, name, f)
				check(name, s)
				continue
			}
			if f.Type().Elem() != reflect.TypeOf(Phase{}) {
				t.Fatalf("%s: no perturbation for a slice of %s", name, f.Type().Elem())
			}
			s.Phases = append(s.Phases, Phase{})
			check(name+" length", s)
			for k := range base.Phases {
				for j := 0; j < reflect.TypeOf(Phase{}).NumField(); j++ {
					p := base
					p.Phases = append([]Phase(nil), base.Phases...)
					pf := reflect.ValueOf(&p.Phases[k]).Elem().Field(j)
					pname := name + "." + reflect.TypeOf(Phase{}).Field(j).Name
					perturbSpec(t, pname, pf)
					check(pname, p)
				}
			}
		}
	}
}

// TestConfigHashAllocs pins ConfigHash at one allocation, the returned
// string: the JSON it hashes is built in a stack buffer.
func TestConfigHashAllocs(t *testing.T) {
	s := fullSpec()
	if n := testing.AllocsPerRun(100, func() { _ = s.ConfigHash() }); n != 1 {
		t.Errorf("ConfigHash: %v allocs, want 1", n)
	}
}

// specFromFuzz builds a Spec whose float fields, in declaration order,
// are the 8-byte words of floats (0 once floats runs out) and whose
// phases are the 32-byte records of phases, so any float value —
// NaN, ±Inf, -0, subnormals — reaches every field.
func specFromFuzz(name, content string, seed uint64, numOps int, code, data, hot int64, floats, phases []byte, emptyPhases bool) Spec {
	next := func(d *[]byte) float64 {
		if len(*d) < 8 {
			*d = nil
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(*d))
		*d = (*d)[8:]
		return v
	}
	s := Spec{Name: name, Content: content, Seed: seed, NumOps: numOps,
		CodeFootprint: code, DataFootprint: data, HotBytes: hot, SourceFile: name}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			f.SetFloat(next(&floats))
		}
	}
	if emptyPhases {
		s.Phases = []Phase{}
	}
	for n := 0; len(phases) >= 32 && n < 8; n++ {
		s.Phases = append(s.Phases, Phase{Frac: next(&phases), DataLocality: next(&phases),
			PointerChaseFrac: next(&phases), BranchNoise: next(&phases)})
	}
	return s
}

// FuzzSpecJSON checks AppendJSON against json.Marshal on arbitrary
// specs: the same bytes, or an error from both; ConfigHash is the
// sha256 of those bytes, and panics exactly when they cannot be written.
func FuzzSpecJSON(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	full := fullSpec()
	var phased []byte
	for _, p := range full.Phases {
		phased = append(phased, words(p.Frac, p.DataLocality, p.PointerChaseFrac, p.BranchNoise)...)
	}
	f.Add("mcf", "", uint64(1), 1200000, int64(64<<10), int64(1<<20), int64(0),
		words(0.25, 0.1, 0.1, 0.02, 0.005, 0.3, 0.7, 0.6, 0.1, 0, 8, 0.1, 0.3), []byte(nil), false)
	f.Add(full.Name, full.Content, full.Seed, full.NumOps, full.CodeFootprint, full.DataFootprint, full.HotBytes,
		words(0.25, 0.1, 0.1, 0.02, 0.005, 0.3, 0.7, 0.6, 0.1, 0.85, 8, 0.1, 0.3, 0.2, 16), phased, false)
	f.Add("<a&b>\"\\\x00\x1f\t\n\r\b\f\x7f", "\u2028\u2029\xff\xc3\u00e9\U0001F600", uint64(math.MaxUint64), -1, int64(math.MinInt64), int64(-1), int64(math.MaxInt64),
		words(1e-7, 1e21, 1e20, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e-6, 123456789.125, -1e-300), []byte(nil), true)
	f.Add("nan", "", uint64(0), 0, int64(0), int64(0), int64(0), words(math.NaN()), []byte(nil), false)
	f.Add("inf", "", uint64(0), 0, int64(0), int64(0), int64(0), []byte(nil), words(math.Inf(-1), 0, 0, 0), false)
	f.Fuzz(func(t *testing.T, name, content string, seed uint64, numOps int, code, data, hot int64, floats, phases []byte, emptyPhases bool) {
		s := specFromFuzz(name, content, seed, numOps, code, data, hot, floats, phases, emptyPhases)
		want, werr := json.Marshal(s)
		got, gerr := s.AppendJSON([]byte("prefix"))
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("json.Marshal error %v, AppendJSON error %v", werr, gerr)
		}
		var hash string
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			hash = s.ConfigHash()
			return false
		}()
		if werr != nil {
			if !panicked {
				t.Errorf("ConfigHash of an unencodable spec returned %s, want a panic", hash)
			}
			return
		}
		if rest, ok := bytes.CutPrefix(got, []byte("prefix")); !ok || !bytes.Equal(rest, want) {
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		sum := sha256.Sum256(want)
		if panicked || hash != hex.EncodeToString(sum[:]) {
			t.Errorf("ConfigHash = %q (panicked %v), want the sha256 of json.Marshal's bytes", hash, panicked)
		}
	})
}
