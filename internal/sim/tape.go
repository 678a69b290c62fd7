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
// depends only on the fields uarch.Machine.WalkHash covers, so every
// machine with that hash replays the same tape and prices each outcome
// with its own latencies.
type Tape struct {
	// Key is the WalkHash of the machine walked.
	Key string
	// Words holds one outcome word per µop, in trace order.
	Words []uint8
	// IStats and DStats are the hierarchy's miss counts after the walk.
	IStats, DStats cache.SideStats

	w *walker // the structures of the last walk, reset for the next
}

// walker holds the structures one walk drives, built for machine m.
type walker struct {
	m         uarch.Machine
	key       string
	hier      *cache.Hierarchy
	pred      branch.Predictor
	lineShift uint
}

// Record walks buf through m's cache hierarchy and branch predictor and
// stores the outcomes in dst. It reuses dst's storage: the words, and
// the structures when dst was last recorded on an equal machine, so a
// steady stream of recordings allocates nothing. The walk takes the
// same fusion decisions and makes the same accesses in the same order
// as a live run of buf on m.
func Record(m *uarch.Machine, buf *trace.Buffer, dst *Tape) error {
	w := dst.w
	if w == nil || w.m != *m {
		if err := m.Validate(); err != nil {
			return err
		}
		hier, err := cache.NewHierarchy(m)
		if err != nil {
			return err
		}
		pred, err := branch.New(m.Predictor)
		if err != nil {
			return err
		}
		w = &walker{m: *m, key: m.WalkHash(), hier: hier, pred: pred}
		for m.L1I.LineBytes>>w.lineShift > 1 {
			w.lineShift++
		}
	} else {
		w.hier.Reset()
		w.pred.Reset()
	}
	ops := buf.Replay().NextChunk()
	words := dst.Words[:0]
	if cap(words) < len(ops) {
		words = make([]uint8, len(ops))
	} else {
		words = words[:len(ops)]
		clear(words)
	}
	hier, fusion := w.hier, m.FusionRate
	lastLine := ^uint64(0)
	for i := 0; i < len(ops); i++ {
		cur := &ops[i]
		if line := cur.PC >> w.lineShift; line != lastLine {
			lastLine = line
			r := hier.DoInstr(cur.PC)
			words[i] = uint8(r.Level) | flag(r.TLBMiss, wITLB)
		}
		var tail *trace.MicroOp
		if cur.FuseHead && i+1 < len(ops) && fuseHash(cur.PC) < fusion {
			tail = &ops[i+1]
			words[i+1] = wFusedTail
		}
		words[i] |= walkData(hier, cur)
		if tail != nil {
			words[i+1] |= walkData(hier, tail)
		}
		if w.mispredicted(cur) {
			words[i] |= wMispredict
			lastLine = ^uint64(0)
		}
		if tail != nil {
			if w.mispredicted(tail) {
				words[i+1] |= wMispredict
				lastLine = ^uint64(0)
			}
			i++
		}
	}
	*dst = Tape{Key: w.key, Words: words, IStats: hier.IStats, DStats: hier.DStats, w: w}
	return nil
}

// mispredicted resolves op through the predictor when it is a branch.
func (w *walker) mispredicted(op *trace.MicroOp) bool {
	return op.Kind == trace.KindBranch && w.pred.PredictUpdate(op.PC, op.Taken) != op.Taken
}

// walkData performs op's data access and returns its tape bits.
func walkData(h *cache.Hierarchy, op *trace.MicroOp) uint8 {
	switch op.Kind {
	case trace.KindLoad:
		r := h.DoLoad(op.Addr)
		return uint8(r.Level)<<wDShift | flag(r.TLBMiss, wDTLB)
	case trace.KindStore:
		h.DoStore(op.Addr)
	}
	return 0
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
	s.tape = t
	words := t.Words
	for i := 0; i < len(ops); i++ {
		s.wCur = words[i]
		if i+1 < len(ops) && words[i+1]&wFusedTail != 0 {
			s.wTail = words[i+1]
			s.step(&ops[i], &ops[i+1])
			i++
		} else {
			s.step(&ops[i], nil)
		}
	}
	return s.end(len(ops) > 0, name)
}

// tapeLoad prices a load's tape outcome with the machine's latencies,
// as cache.Hierarchy.DoLoad would.
func (s *Simulator) tapeLoad(w uint8) cache.Result {
	lvl := cache.Level(w & wDLevel >> wDShift)
	r := cache.Result{Level: lvl, Lat: s.loadLat[lvl&3], MemTrip: lvl == cache.LvlMem}
	if w&wDTLB != 0 {
		r.TLBMiss = true
		r.Lat += s.dtlbMiss
	}
	return r
}
