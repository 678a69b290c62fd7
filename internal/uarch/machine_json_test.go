package uarch

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// machineLeaves calls visit on every non-struct field under v, named by
// its path from name.
func machineLeaves(v reflect.Value, name string, visit func(reflect.Value, string)) {
	if v.Kind() != reflect.Struct {
		visit(v, name)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		machineLeaves(v.Field(i), name+"."+v.Type().Field(i).Name, visit)
	}
}

// stockMachines returns a fresh copy of every registered machine.
func stockMachines(t *testing.T) []*Machine {
	t.Helper()
	var ms []*Machine
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// checkMachineJSON requires AppendJSON to write json.Marshal's bytes
// for m, or to fail where json.Marshal fails.
func checkMachineJSON(t *testing.T, what string, m *Machine) {
	t.Helper()
	want, werr := json.Marshal(m)
	got, gerr := m.AppendJSON(nil)
	switch {
	case (werr != nil) != (gerr != nil):
		t.Errorf("%s: json.Marshal error %v, AppendJSON error %v", what, werr, gerr)
	case werr == nil && string(got) != string(want):
		t.Errorf("%s: AppendJSON wrote\n%s\njson.Marshal writes\n%s", what, got, want)
	}
}

// TestMachineJSONMatchesMarshal sets every leaf field of every stock
// machine, enumerated by reflection, to values at the edges of its
// kind, and requires AppendJSON's bytes to stay json.Marshal's.
func TestMachineJSONMatchesMarshal(t *testing.T) {
	ints := []int64{0, -1, 7, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 0.35, 1e21, math.MaxFloat64, math.NaN(), math.Inf(1)}
	strs := []string{"", "<a&b>", "\"\\\x00\x1f", "\u2028\xff\u00e9"}
	for _, base := range stockMachines(t) {
		checkMachineJSON(t, base.Name, base)
		machineLeaves(reflect.ValueOf(base).Elem(), base.Name, func(f reflect.Value, name string) {
			saved := reflect.ValueOf(f.Interface())
			defer f.Set(saved)
			switch f.Kind() {
			case reflect.Int:
				for _, v := range ints {
					f.SetInt(v)
					checkMachineJSON(t, name, base)
				}
			case reflect.Float64:
				for _, v := range floats {
					f.SetFloat(v)
					checkMachineJSON(t, name, base)
				}
			case reflect.Bool:
				f.SetBool(!f.Bool())
				checkMachineJSON(t, name, base)
			case reflect.String:
				for _, v := range strs {
					f.SetString(v)
					checkMachineJSON(t, name, base)
				}
			default:
				t.Fatalf("%s: no values for kind %s; extend this test and AppendJSON", name, f.Kind())
			}
		})
	}
}

// TestMachineKeyCoversEveryField changes every leaf field of a machine
// in turn, enumerated by reflection — integers by one, floats by one
// ulp, booleans flipped, names renamed — and requires each change to
// change ConfigHash, so a new field cannot silently alias store
// entries.
func TestMachineKeyCoversEveryField(t *testing.T) {
	m := CoreI7()
	m.Prefetch = PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	m.FusionRate = 0.3
	want := m.ConfigHash()
	machineLeaves(reflect.ValueOf(m).Elem(), "Machine", func(f reflect.Value, name string) {
		saved := reflect.ValueOf(f.Interface())
		defer f.Set(saved)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "'")
		default:
			t.Fatalf("%s: no perturbation for kind %s; extend this test and AppendJSON", name, f.Kind())
		}
		if m.ConfigHash() == want {
			t.Errorf("changing %s left ConfigHash unchanged", name)
		}
	})
}

// TestMachineConfigHashAllocs pins ConfigHash at one allocation, the
// returned string, and a NaN FusionRate at a panic.
func TestMachineConfigHashAllocs(t *testing.T) {
	m := CoreI7()
	if n := testing.AllocsPerRun(100, func() { _ = m.ConfigHash() }); n != 1 {
		t.Errorf("ConfigHash: %v allocs, want 1", n)
	}
	m.FusionRate = math.NaN()
	defer func() {
		if recover() == nil {
			t.Error("ConfigHash of a NaN FusionRate did not panic")
		}
	}()
	m.ConfigHash()
}
