package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/uarch"
)

// edgeFloats are the float64 values where encoding/json's float format
// changes or cannot write the value at all.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 5, 0.5, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-10, 1.5e-300,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.2345e100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// resultWords is the number of 8-byte words resultOf reads: the 15
// counters, then Truth's cycles, then MeasuredMLP.
const resultWords = 15 + int(NumComponents) + 1

// resultOf builds a Result from data read as little-endian words, zero
// padded: the counters take their values and the floats their bits.
func resultOf(data []byte) *Result {
	var w [resultWords]uint64
	var word [8]byte
	for i := range w {
		clear(word[:])
		if 8*i < len(data) {
			copy(word[:], data[8*i:])
		}
		w[i] = binary.LittleEndian.Uint64(word[:])
	}
	r := new(Result)
	for i, p := range counterRefs(&r.Counters) {
		*p = w[i]
	}
	for i := range r.Truth.Cycles {
		r.Truth.Cycles[i] = math.Float64frombits(w[15+i])
	}
	r.MeasuredMLP = math.Float64frombits(w[resultWords-1])
	return r
}

// wordsOf is resultOf's inverse for seeding: every counter is c and the
// floats are fs, cycled.
func wordsOf(c uint64, fs ...float64) []byte {
	b := make([]byte, 0, 8*resultWords)
	for i := 0; i < 15; i++ {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	for i := 0; i < resultWords-15; i++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fs[i%len(fs)]))
	}
	return b
}

func simulated(t testing.TB) *Result {
	t.Helper()
	s, err := New(uarch.CoreTwo())
	if err != nil {
		t.Fatal(err)
	}
	spec := baseSpec("codec", 3)
	spec.NumOps = 20000
	r, err := s.Run(trace.Materialize(spec))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDecodeRejectsOtherSpellings: JSON that json.Unmarshal reads as
// the same Result, but not in the encoder's bytes, is no decode.
func TestDecodeRejectsOtherSpellings(t *testing.T) {
	r := resultOf(wordsOf(5, 1e-7, 5, 1e21, math.Copysign(0, -1)))
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(enc)
	for _, c := range []struct {
		name, text string
		json       bool // json.Unmarshal reads it
	}{
		{"leading space", " " + s, true},
		{"trailing newline", s + "\n", true},
		{"space after a colon", strings.Replace(s, `"Uops":`, `"Uops": `, 1), true},
		{"5.0 for 5", strings.Replace(s, `,5,1e+21`, `,5.0,1e+21`, 1), true},
		{"-0.0 for -0", strings.Replace(s, `,-0,`, `,-0.0,`, 1), true},
		{"e-07 for e-7", strings.Replace(s, `[1e-7`, `[1e-07`, 1), true},
		{"0.0000001 for 1e-7", strings.Replace(s, `[1e-7`, `[0.0000001`, 1), true},
		{"1E+21 for 1e+21", strings.Replace(s, `1e+21`, `1E+21`, 1), true},
		{"an escaped key", strings.Replace(s, `"FPOps"`, `"FP\u004fps"`, 1), true},
		{"reordered counters", strings.Replace(s, `"Cycles":5,"Uops":5`, `"Uops":5,"Cycles":5`, 1), true},
		{"a missing field", strings.Replace(s, `,"FPOps":5`, ``, 1), true},
		{"an extra field", strings.Replace(s, `}`, `,"X":1}`, 1), true},
		{"5.0 for a counter's 5", strings.Replace(s, `"Uops":5`, `"Uops":5.0`, 1), false},
		{"a leading zero", strings.Replace(s, `"Uops":5`, `"Uops":05`, 1), false},
		{"a plus sign", strings.Replace(s, `[1e-7`, `[+1e-7`, 1), false},
		{"a truncation", s[:len(s)-1], false},
	} {
		if c.text == s {
			t.Fatalf("%s: the edit left the encoding as it was", c.name)
		}
		var got Result
		if err := json.Unmarshal([]byte(c.text), &got); (err == nil) != c.json {
			t.Errorf("%s: json.Unmarshal(%s) = %v", c.name, c.text, err)
		}
		if got.Decode([]byte(c.text)) {
			t.Errorf("%s: Decode accepts %s", c.name, c.text)
		}
	}
}

// TestDecodeAllocatesNothing: a decode stays on the stack.
func TestDecodeAllocatesNothing(t *testing.T) {
	enc, err := simulated(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if n := testing.AllocsPerRun(100, func() {
		if !r.Decode(enc) {
			t.Fatal("Decode rejects its own encoding")
		}
	}); n != 0 {
		t.Errorf("Decode makes %v allocations, want 0", n)
	}
}

// FuzzResultCodec checks the codec against encoding/json. data is read
// two ways. As the words of a Result (resultOf), its encoding and its
// error or no error must equal json.Marshal's, and Decode must read the
// encoding back as the same Result. As bytes, Decode must either reject
// them or accept exactly the encoding of what it decoded, which
// json.Unmarshal reads as the same Result.
func FuzzResultCodec(f *testing.F) {
	enc, err := simulated(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	for _, v := range edgeFloats {
		f.Add(wordsOf(1, v))
		if e, err := resultOf(wordsOf(7, v, 1)).Encode(); err == nil {
			f.Add(e)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := resultOf(data)
		got, gotErr := r.AppendEncode(nil)
		want, wantErr := json.Marshal(r)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("AppendEncode(%+v) = %s, %v\njson.Marshal = %s, %v", r, got, gotErr, want, wantErr)
		}
		var back Result
		if gotErr == nil && (!back.Decode(got) || back != *r) {
			t.Fatalf("Decode(%s) = %+v, want %+v", got, back, r)
		}

		var dec Result
		if !dec.Decode(data) {
			return
		}
		again, err := dec.AppendEncode(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("Decode accepts %q, which encodes back as %q (%v)", data, again, err)
		}
		var viaJSON Result
		if err := json.Unmarshal(data, &viaJSON); err != nil || !reflect.DeepEqual(viaJSON, dec) {
			t.Fatalf("Decode(%q) = %+v; json.Unmarshal = %+v, %v", data, dec, viaJSON, err)
		}
	})
}
