package sim

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Tape word layout: one byte per µop of the walked trace.
const (
	wILevel     = 0x03 // I-fetch level (cache.Level), on a fetch-line change
	wITLB       = 0x04 // the fetch missed the ITLB
	wDShift     = 3
	wDLevel     = 0x03 << wDShift // load level (cache.Level)
	wDTLB       = 0x20            // the load missed the DTLB
	wMispredict = 0x40            // the branch was mispredicted
	wFusedTail  = 0x80            // the µop is the fused tail of the one before
)

// Tape is one walk of a trace through a machine's caches, TLBs and
// branch predictor: what each µop met, without what it cost. The walk
// depends only on the fields uarch.Machine.WalkKey covers, so every
// machine with that key replays the same tape and prices each outcome
// with its own latencies.
type Tape struct {
	// Key is the WalkKey of the machine walked.
	Key uarch.WalkKey
	// Words holds one outcome word per µop, in trace order.
	Words []uint8
	// IStats and DStats are the hierarchy's miss counts after the walk.
	IStats, DStats cache.SideStats

	w *walker // the structures of the last walk, reset for the next
}

// walker holds the structures a walk drives, built for machine m: the
// cache hierarchy, the branch predictor and the fetch-line tracker.
// Record and live runs share it.
type walker struct {
	m         uarch.Machine
	key       uarch.WalkKey
	hier      *cache.Hierarchy
	pred      branch.Predictor
	lineShift uint
	lastLine  uint64 // the line last fetched; ^0 forces the next fetch
}

// walkerFor returns w reset for a new walk of m, or a new walker when w
// is nil or was built for another machine. A reset walker is
// bit-identical to a fresh one.
func walkerFor(m *uarch.Machine, w *walker) (*walker, error) {
	if w == nil || w.m != *m {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		hier, err := cache.NewHierarchy(m)
		if err != nil {
			return nil, err
		}
		pred, err := branch.New(m.Predictor)
		if err != nil {
			return nil, err
		}
		w = &walker{m: *m, key: m.WalkKey(), hier: hier, pred: pred}
		for m.L1I.LineBytes>>w.lineShift > 1 {
			w.lineShift++
		}
	} else {
		w.hier.Reset()
		w.pred.Reset()
	}
	w.lastLine = ^uint64(0)
	return w, nil
}

// Record walks buf through m's cache hierarchy and branch predictor and
// stores the outcomes in dst. It reuses dst's storage: the words, and
// the structures when dst was last recorded on an equal machine, so a
// steady stream of recordings allocates nothing. The walk takes the
// same fusion decisions and makes the same accesses in the same order
// as a live run of buf on m.
func Record(m *uarch.Machine, buf *trace.Buffer, dst *Tape) error {
	w, err := walkerFor(m, dst.w)
	if err != nil {
		return err
	}
	ops := buf.Replay().NextChunk()
	words := dst.Words[:0]
	if cap(words) < len(ops) {
		words = make([]uint8, len(ops))
	} else {
		words = words[:len(ops)]
	}
	for i := 0; i < len(ops); i++ {
		cur := &ops[i]
		if cur.FuseHead && i+1 < len(ops) && fuseHash(cur.PC) < m.FusionRate {
			words[i], words[i+1] = w.walk(cur, &ops[i+1])
			i++
		} else {
			words[i], _ = w.walk(cur, nil)
		}
	}
	*dst = Tape{Key: w.key, Words: words, IStats: w.hier.IStats, DStats: w.hier.DStats, w: w}
	return nil
}

// walk drives one dispatch group — cur and, when fused, tail — through
// the structures in a live run's order: the fetch line, each half's
// data access, then each half's branch. It returns the two halves'
// outcome words (wt is 0 without a tail). The load/store switches are
// written out here rather than in a helper: the walk runs once per
// dispatch group, and a call per access shows in a live run's time.
func (w *walker) walk(cur, tail *trace.MicroOp) (wc, wt uint8) {
	h := w.hier
	if line := cur.PC >> w.lineShift; line != w.lastLine {
		w.lastLine = line
		r := h.DoInstr(cur.PC)
		wc = uint8(r.Level) | flag(r.TLBMiss, wITLB)
	}
	switch cur.Kind {
	case trace.KindLoad:
		r := h.DoLoad(cur.Addr)
		wc |= uint8(r.Level)<<wDShift | flag(r.TLBMiss, wDTLB)
	case trace.KindStore:
		h.DoStore(cur.Addr)
	}
	if tail != nil {
		wt = wFusedTail
		switch tail.Kind {
		case trace.KindLoad:
			r := h.DoLoad(tail.Addr)
			wt |= uint8(r.Level)<<wDShift | flag(r.TLBMiss, wDTLB)
		case trace.KindStore:
			h.DoStore(tail.Addr)
		}
	}
	if cur.Kind == trace.KindBranch && w.mispredicted(cur) {
		wc |= wMispredict
	}
	if tail != nil && tail.Kind == trace.KindBranch && w.mispredicted(tail) {
		wt |= wMispredict
	}
	return wc, wt
}

// mispredicted resolves branch op through the predictor; a
// misprediction makes the next group refetch its line.
func (w *walker) mispredicted(op *trace.MicroOp) bool {
	if w.pred.PredictUpdate(op.PC, op.Taken) == op.Taken {
		return false
	}
	w.lastLine = ^uint64(0)
	return true
}

func flag(b bool, bit uint8) uint8 {
	if b {
		return bit
	}
	return 0
}

// Replay runs the timing core over buf, reading every cache, TLB and
// branch outcome from t instead of walking the structures, and fills
// *res exactly as RunInto would. buf is used as a cursor: pass each
// concurrent replay its own (trace.Buffer.Replay). A tape recorded for
// another walk key, or for a trace of another length, is rejected.
func (s *Simulator) Replay(res *Result, buf *trace.Buffer, t *Tape) error {
	name := buf.Spec().Name
	if t.Key != s.walkKey {
		return fmt.Errorf("sim: tape of %q was walked on another cache, TLB or predictor configuration than %s",
			name, s.m.Name)
	}
	buf.Reset()
	ops := buf.NextChunk()
	if len(t.Words) != len(ops) {
		return fmt.Errorf("sim: tape of %d µops does not fit the %d-µop trace %q", len(t.Words), len(ops), name)
	}
	s.begin(res)
	words := t.Words
	for i := 0; i < len(ops); i++ {
		if i+1 < len(ops) && words[i+1]&wFusedTail != 0 {
			s.step(&ops[i], &ops[i+1], words[i], words[i+1])
			i++
		} else {
			s.step(&ops[i], nil, words[i], 0)
		}
	}
	return s.end(len(ops) > 0, name, &t.IStats, &t.DStats)
}
