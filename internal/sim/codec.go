package sim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/perfctr"
)

// A Result's encoding is the JSON encoding/json writes for it: the
// counters in field order, Truth's cycle array, then MeasuredMLP, with
// no whitespace. The codec writes and reads exactly those bytes without
// reflection, so a stored run reads back in one pass over its bytes.

// counterKeys are the bytes that precede each perfctr.Counters field in
// a Result's encoding, in field order (see counterRefs).
var counterKeys = [...]string{
	`{"Counters":{"Cycles":`, `,"Uops":`, `,"Instructions":`,
	`,"BranchMispredicts":`, `,"Branches":`,
	`,"L1IMisses":`, `,"L2IMisses":`, `,"L3IMisses":`, `,"LLCIMisses":`, `,"ITLBMisses":`,
	`,"L1DLoadMisses":`, `,"L1DLoadL2Hits":`, `,"LLCDLoadMisses":`, `,"DTLBMisses":`,
	`,"FPOps":`,
}

// counterRefs returns c's fields in the order of counterKeys.
func counterRefs(c *perfctr.Counters) [len(counterKeys)]*uint64 {
	return [...]*uint64{
		&c.Cycles, &c.Uops, &c.Instructions,
		&c.BranchMispredicts, &c.Branches,
		&c.L1IMisses, &c.L2IMisses, &c.L3IMisses, &c.LLCIMisses, &c.ITLBMisses,
		&c.L1DLoadMisses, &c.L1DLoadL2Hits, &c.LLCDLoadMisses, &c.DTLBMisses,
		&c.FPOps,
	}
}

const (
	truthKey = `},"Truth":{"Cycles":[`
	mlpKey   = `]},"MeasuredMLP":`
)

// Encode serializes the result deterministically (see AppendEncode), so
// equal Results always produce byte-identical encodings.
func (r *Result) Encode() ([]byte, error) {
	return r.AppendEncode(nil)
}

// AppendEncode appends r's encoding to b: the bytes json.Marshal(r)
// writes. Floats use encoding/json's rule, the shortest 'f' form, or
// 'e' below 1e-6 or at or above 1e21 with a one-digit negative exponent
// unpadded. A NaN or infinite float is an error, as in encoding/json.
func (r *Result) AppendEncode(b []byte) ([]byte, error) {
	for i, p := range counterRefs(&r.Counters) {
		b = append(b, counterKeys[i]...)
		b = strconv.AppendUint(b, *p, 10)
	}
	b = append(b, truthKey...)
	var err error
	for i, v := range r.Truth.Cycles {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendFinite(b, v); err != nil {
			return nil, err
		}
	}
	b = append(b, mlpKey...)
	if b, err = appendFinite(b, r.MeasuredMLP); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendFinite is appendFloat for the values encoding/json can write.
func appendFinite(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("sim: cannot encode %v in a Result", v)
	}
	return appendFloat(b, v), nil
}

// appendFloat appends v as encoding/json writes a finite float64.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// Decode sets r from data and reports whether data is exactly what
// AppendEncode writes for some Result. Any other bytes — whitespace,
// reordered or missing fields, a leading zero, a "+", "5.0" for 5 —
// leave r untouched and return false. Decode never panics.
func (r *Result) Decode(data []byte) bool {
	var v Result
	d, ok := data, false
	for i, p := range counterRefs(&v.Counters) {
		if d, ok = cutLiteral(d, counterKeys[i]); !ok {
			return false
		}
		if *p, d, ok = cutUint(d); !ok {
			return false
		}
	}
	if d, ok = cutLiteral(d, truthKey); !ok {
		return false
	}
	for i := range v.Truth.Cycles {
		if i > 0 {
			if d, ok = cutLiteral(d, ","); !ok {
				return false
			}
		}
		if v.Truth.Cycles[i], d, ok = cutFloat(d); !ok {
			return false
		}
	}
	if d, ok = cutLiteral(d, mlpKey); !ok {
		return false
	}
	if v.MeasuredMLP, d, ok = cutFloat(d); !ok {
		return false
	}
	if string(d) != "}" {
		return false
	}
	*r = v
	return true
}

// cutLiteral returns d after its prefix lit.
func cutLiteral(d []byte, lit string) ([]byte, bool) {
	if len(d) < len(lit) || string(d[:len(lit)]) != lit {
		return nil, false
	}
	return d[len(lit):], true
}

// cutUint returns the decimal uint64 that d starts with, written as
// strconv.AppendUint writes it, and the rest of d.
func cutUint(d []byte) (uint64, []byte, bool) {
	n := 0
	for n < len(d) && '0' <= d[n] && d[n] <= '9' {
		n++
	}
	if n == 0 || n > 1 && d[0] == '0' {
		return 0, nil, false
	}
	v, err := strconv.ParseUint(string(d[:n]), 10, 64)
	return v, d[n:], err == nil
}

// maxFloatLen bounds appendFloat's output ("-2.2250738585072014e-308"
// is 24 bytes).
const maxFloatLen = 32

// cutFloat returns the float64 that d starts with, written as
// appendFloat writes it, and the rest of d. The number runs to the next
// ',', ']' or '}'; it is canonical if appendFloat writes it back byte
// for byte.
func cutFloat(d []byte) (float64, []byte, bool) {
	n := 0
	for n < len(d) && n <= maxFloatLen && d[n] != ',' && d[n] != ']' && d[n] != '}' {
		n++
	}
	if n == 0 || n > maxFloatLen {
		return 0, nil, false
	}
	v, err := strconv.ParseFloat(string(d[:n]), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nil, false
	}
	var buf [maxFloatLen]byte
	if string(appendFloat(buf[:0], v)) != string(d[:n]) {
		return 0, nil, false
	}
	return v, d[n:], true
}
