package sim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonbytes"
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
// writes, floats included (jsonbytes.AppendFloat). A NaN or infinite
// float is an error, as in encoding/json.
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

// appendFinite is jsonbytes.AppendFloat for the values encoding/json
// can write.
func appendFinite(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("sim: cannot encode %v in a Result", v)
	}
	return jsonbytes.AppendFloat(b, v), nil
}

// Decode sets r from data and reports whether data is exactly what
// AppendEncode writes for some Result. Any other bytes — whitespace,
// reordered or missing fields, a leading zero, a "+", "5.0" for 5 —
// leave r untouched and return false. Decode never panics.
func (r *Result) Decode(data []byte) bool {
	var v Result
	d, ok := data, false
	for i, p := range counterRefs(&v.Counters) {
		if d, ok = jsonbytes.CutLiteral(d, counterKeys[i]); !ok {
			return false
		}
		if *p, d, ok = jsonbytes.CutUint(d); !ok {
			return false
		}
	}
	if d, ok = jsonbytes.CutLiteral(d, truthKey); !ok {
		return false
	}
	for i := range v.Truth.Cycles {
		if i > 0 {
			if d, ok = jsonbytes.CutLiteral(d, ","); !ok {
				return false
			}
		}
		if v.Truth.Cycles[i], d, ok = jsonbytes.CutFloat(d); !ok {
			return false
		}
	}
	if d, ok = jsonbytes.CutLiteral(d, mlpKey); !ok {
		return false
	}
	if v.MeasuredMLP, d, ok = jsonbytes.CutFloat(d); !ok {
		return false
	}
	if string(d) != "}" {
		return false
	}
	*r = v
	return true
}
