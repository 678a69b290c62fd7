package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// checkAppendJSON fails t unless v.AppendJSON appends exactly
// json.MarshalIndent(v, "", "  ")'s bytes and a newline, or fails with
// encoding/json's own error where MarshalIndent fails.
func checkAppendJSON(t *testing.T, v jsonAppender) {
	t.Helper()
	const prefix = "prefix"
	want, werr := json.MarshalIndent(v, "", "  ")
	got, gerr := v.AppendJSON([]byte(prefix))
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%T: AppendJSON error %v, encoding/json's %v", v, gerr, werr)
		}
	case gerr != nil:
		t.Fatalf("%T: AppendJSON failed on an encodable value: %v", v, gerr)
	case !bytes.Equal(got, append(append([]byte(prefix), want...), '\n')):
		t.Fatalf("%T: AppendJSON wrote\n%s\nwant %s and\n%s", v, got, prefix, want)
	}
}

// FuzzPredictJSON: both predict response forms append exactly what
// json.MarshalIndent writes, for fuzzed strings (HTML characters,
// control characters, invalid UTF-8), floats drawn from arbitrary bits
// (NaN and ±Inf included, which must fail as encoding/json fails), and
// shape bits choosing nil or empty workloads and stacks, a nil
// accuracy and nil batch machines.
func FuzzPredictJSON(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("core2", "fc68c8625f20", "mcf", floats(9.46767409742964, 0, 3.8986209243084646), 2000, uint64(1), uint8(0x40))
	f.Add("<a&b>  ", "\x00\x1f\"\\\t", "\xff\xfe\xc3", floats(1e-7, 1e21, math.Copysign(0, -1), 5e-324), -1,
		uint64(math.MaxUint64), uint8(0xc8))
	f.Add("", "", "", floats(math.MaxFloat64, -1e-6, 1e20, 123456789e-30), 0, uint64(0), uint8(0x85))
	f.Add("nan", "x", "y", floats(1, 2, math.NaN()), 7, uint64(3), uint8(0x80))
	f.Add("inf", "x", "y", floats(math.Inf(-1)), 7, uint64(3), uint8(0xd4))
	f.Add("empty", "x", "y", []byte{}, 1, uint64(2), uint8(0x3f))
	f.Fuzz(func(t *testing.T, name, hash, workload string, nums []byte, ops int, seed uint64, shape uint8) {
		k := 0
		num := func() float64 {
			if len(nums) < 8 {
				k++
				return float64(k) / 3
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(nums))
			nums = nums[8:]
			return v
		}
		machine := func() MachinePrediction {
			var ws []WorkloadPrediction
			if shape&1 == 0 {
				ws = make([]WorkloadPrediction, shape>>6)
			}
			for i := range ws {
				ws[i].WorkloadCPI = experiments.WorkloadCPI{Workload: workload, MeasuredCPI: num(), PredictedCPI: num(), RelErr: num()}
				switch {
				case shape&4 != 0: // a nil stack
				case shape&8 != 0:
					ws[i].Stack = []experiments.StackCPI{}
				default:
					ws[i].Stack = []experiments.StackCPI{{Component: name, CPI: num()}, {Component: hash, CPI: num()}}
				}
			}
			mp := MachinePrediction{Machine: name, ConfigHash: hash, Workloads: ws, Params: core.Params{
				B1: num(), B2: num(), B3: num(), B4: num(), B5: num(), B6: num(), B7: num(), B8: num(), B9: num(), B10: num()}}
			if shape&16 == 0 {
				mp.Accuracy = &experiments.SuiteAccuracy{AvgRelErr: num(), MaxRelErr: num(), FracBelow20Pct: num()}
			}
			return mp
		}
		mp := machine()
		checkAppendJSON(t, &PredictResponse{Machine: mp.Machine, ConfigHash: mp.ConfigHash, Suite: workload,
			Ops: ops, FitStarts: -ops, Seed: seed, Params: mp.Params, Workloads: mp.Workloads, Accuracy: mp.Accuracy})
		batch := &BatchPredictResponse{Suite: hash, Ops: ops, FitStarts: ops / 3, Seed: seed}
		if shape&32 == 0 {
			batch.Machines = []MachinePrediction{mp, machine()}
		}
		checkAppendJSON(t, batch)
	})
}

// TestPredictJSONCoversEveryField sets every field the predict
// responses carry, down through the nested types, to a distinct value
// by reflection, then clears each one in turn (a nil slice or pointer
// included): AppendJSON must match encoding/json every time, so a wire
// field the writer does not write, or writes out of order, fails here.
func TestPredictJSONCoversEveryField(t *testing.T) {
	for _, v := range []jsonAppender{new(PredictResponse), new(BatchPredictResponse)} {
		var fields []reflect.Value
		n := 0
		fillEveryField(t, reflect.ValueOf(v).Elem(), &n, &fields)
		checkAppendJSON(t, v)
		for _, f := range fields {
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			f.SetZero()
			checkAppendJSON(t, v)
			f.Set(saved)
		}
	}
}

// fillEveryField sets v to a distinct non-zero value: structs field by
// field, slices to two elements, pointers to a new value. It appends
// every field it set to fields.
func fillEveryField(t *testing.T, v reflect.Value, n *int, fields *[]reflect.Value) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			*fields = append(*fields, v.Field(i))
			fillEveryField(t, v.Field(i), n, fields)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fillEveryField(t, v.Index(i), n, fields)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEveryField(t, v.Elem(), n, fields)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<&>", *n))
	case reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 40)
	default:
		t.Fatalf("no filler for a %s field", v.Type())
	}
}

// suiteResponse is a hand-made whole-suite response the size of a
// cpu2000 answer: 12 workloads, each with a full stack.
func suiteResponse() *PredictResponse {
	r := &PredictResponse{Machine: "corei7", ConfigHash: "3f0c", Suite: "cpu2006", Ops: 1200000, FitStarts: 4,
		Params:   core.Params{B1: 9.46767409742964, B5: 3.8986209243084646, B6: 0.20670608165506343, B10: 271.72237855348493},
		Accuracy: &experiments.SuiteAccuracy{AvgRelErr: 0.11344119180457816, MaxRelErr: 0.3397094655006802, FracBelow20Pct: 0.8333333333333334}}
	for i := range 12 {
		w := WorkloadPrediction{WorkloadCPI: experiments.WorkloadCPI{Workload: fmt.Sprintf("w%d", i),
			MeasuredCPI: 21.589605734767026 / float64(i+1), PredictedCPI: 14.2554123102389 / float64(i+1), RelErr: -0.3397094655006802}}
		for c := range sim.NumComponents {
			w.Stack = append(w.Stack, experiments.StackCPI{Component: fmt.Sprintf("c%d", c), CPI: 1.2114695340501793 * float64(c)})
		}
		r.Workloads = append(r.Workloads, w)
	}
	return r
}

// TestPredictJSONAllocs pins the writer at zero allocations: a
// suite-sized response appended into a buffer already grown to fit.
func TestPredictJSONAllocs(t *testing.T) {
	r := suiteResponse()
	checkAppendJSON(t, r)
	buf, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = r.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a grown buffer: %v allocs, want 0", n)
	}
}
