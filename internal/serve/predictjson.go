package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jsonbytes"
)

// AppendJSON appends r as writeJSON writes it, json.MarshalIndent(r, "",
// "  ")'s bytes plus a newline, in one pass and without reflection, or
// fails as encoding/json fails on a non-finite float (FuzzPredictJSON,
// TestPredictJSONCoversEveryField).
func (r *PredictResponse) AppendJSON(b []byte) ([]byte, error) {
	e := indenter{b: b}
	e.open("", '{')
	e.str("machine", r.Machine)
	e.str("configHash", r.ConfigHash)
	e.fitOpts(r.Suite, r.Ops, r.FitStarts, r.Seed)
	e.machineTail(&r.Params, r.Workloads, r.Accuracy)
	return e.end()
}

// AppendJSON appends r as writeJSON writes it, as
// PredictResponse.AppendJSON does.
func (r *BatchPredictResponse) AppendJSON(b []byte) ([]byte, error) {
	e := indenter{b: b}
	e.open("", '{')
	e.fitOpts(r.Suite, r.Ops, r.FitStarts, r.Seed)
	if e.list("machines", r.Machines == nil) {
		for i := range r.Machines {
			mp := &r.Machines[i]
			e.open("", '{')
			e.str("machine", mp.Machine)
			e.str("configHash", mp.ConfigHash)
			e.machineTail(&mp.Params, mp.Workloads, mp.Accuracy)
			e.close('}')
		}
		e.close(']')
	}
	return e.end()
}

// paramKeys are core.Params' fields in the order encoding/json writes
// them.
var paramKeys = [...]string{"B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B10"}

// machineTail writes the members both forms' machines end with.
func (e *indenter) machineTail(p *core.Params, ws []WorkloadPrediction, acc *experiments.SuiteAccuracy) {
	e.open("params", '{')
	for i, v := range [...]float64{p.B1, p.B2, p.B3, p.B4, p.B5, p.B6, p.B7, p.B8, p.B9, p.B10} {
		e.num(paramKeys[i], v)
	}
	e.close('}')
	if e.list("workloads", ws == nil) {
		for i := range ws {
			w := &ws[i]
			e.open("", '{')
			e.str("workload", w.Workload)
			e.num("measuredCPI", w.MeasuredCPI)
			e.num("predictedCPI", w.PredictedCPI)
			e.num("relErr", w.RelErr)
			if e.list("stack", w.Stack == nil) {
				for _, s := range w.Stack {
					e.open("", '{')
					e.str("component", s.Component)
					e.num("cpi", s.CPI)
					e.close('}')
				}
				e.close(']')
			}
			e.close('}')
		}
		e.close(']')
	}
	if acc != nil {
		e.open("accuracy", '{')
		e.num("avgRelErr", acc.AvgRelErr)
		e.num("maxRelErr", acc.MaxRelErr)
		e.num("fracBelow20pct", acc.FracBelow20Pct)
		e.close('}')
	}
}

// fitOpts writes the request-wide members both forms carry.
func (e *indenter) fitOpts(suite string, ops, fitStarts int, seed uint64) {
	e.str("suite", suite)
	e.key("ops")
	e.b = strconv.AppendInt(e.b, int64(ops), 10)
	e.key("fitStarts")
	e.b = strconv.AppendInt(e.b, int64(fitStarts), 10)
	e.key("seed")
	e.b = strconv.AppendUint(e.b, seed, 10)
}

// indenter appends JSON indented as json.MarshalIndent indents it: key
// starts a member, or an array element for the key "", on a line of its
// own, and a container closed with nothing in it stays {} or [].
type indenter struct {
	b     []byte
	depth int
	empty bool // nothing written since the last open
	err   error
}

func (e *indenter) key(k string) {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.b, e.empty = indentLine(e.b, e.depth), false
	if k != "" {
		e.b = append(append(append(e.b, '"'), k...), `": `...)
	}
}

// open starts an object or array, as member k below the top level.
func (e *indenter) open(k string, c byte) {
	if e.depth > 0 {
		e.key(k)
	}
	e.b, e.depth, e.empty = append(e.b, c), e.depth+1, true
}

func (e *indenter) close(c byte) {
	if e.depth--; !e.empty {
		e.b = indentLine(e.b, e.depth)
	}
	e.b, e.empty = append(e.b, c), false
}

// list opens an array, or writes null for a nil slice and reports false.
func (e *indenter) list(k string, isNil bool) bool {
	if isNil {
		e.key(k)
		e.b = append(e.b, "null"...)
	} else {
		e.open(k, '[')
	}
	return !isNil
}

func (e *indenter) str(k, v string) {
	e.key(k)
	e.b = jsonbytes.AppendString(e.b, v)
}

func (e *indenter) num(k string, v float64) {
	e.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		v = 0
	}
	e.b = jsonbytes.AppendFloat(e.b, v)
}

// end closes the top-level object and its line.
func (e *indenter) end() ([]byte, error) {
	e.close('}')
	return append(e.b, '\n'), e.err
}
