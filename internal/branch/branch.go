// Package branch implements the direction predictors used by the
// simulated cores: a bimodal (per-PC 2-bit counter) predictor, a gshare
// predictor (global history XOR PC indexing a 2-bit counter table), and a
// tournament predictor (a per-PC chooser selecting between bimodal and
// gshare components), plus a direct-mapped branch target buffer.
//
// Predictors are deliberately simple and deterministic: the paper's model
// only needs the *number* of mispredictions as a counter input, but the
// simulator needs realistic per-workload variation in that number across
// the three machine generations.
package branch

import (
	"fmt"

	"repro/internal/uarch"
)

// Predictor predicts conditional branch directions and learns outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
	// PredictUpdate returns the predicted direction for the branch at pc
	// and trains the predictor with the actual outcome in one pass. It is
	// exactly Predict followed by Update — the simulator always resolves
	// a branch immediately after predicting it, and the fused form
	// computes each table index once instead of up to three times.
	PredictUpdate(pc uint64, taken bool) bool
	// Reset restores the freshly-constructed state: a reset predictor
	// behaves bit-identically to a new one with the same configuration.
	Reset()
	// Name identifies the predictor for reporting.
	Name() string
}

// New constructs the predictor described by cfg.
func New(cfg uarch.PredictorConfig) (Predictor, error) {
	if cfg.TableBits <= 0 || cfg.TableBits > 24 {
		return nil, fmt.Errorf("branch: table bits %d out of range (1..24)", cfg.TableBits)
	}
	switch cfg.Kind {
	case uarch.PredBimodal:
		return newBimodal(cfg.TableBits), nil
	case uarch.PredGshare:
		if cfg.HistoryBits <= 0 || cfg.HistoryBits > 32 {
			return nil, fmt.Errorf("branch: history bits %d out of range (1..32)", cfg.HistoryBits)
		}
		return newGshare(cfg.TableBits, cfg.HistoryBits), nil
	case uarch.PredTournament:
		if cfg.HistoryBits <= 0 || cfg.HistoryBits > 32 {
			return nil, fmt.Errorf("branch: history bits %d out of range (1..32)", cfg.HistoryBits)
		}
		return newTournament(cfg.TableBits, cfg.HistoryBits), nil
	default:
		return nil, fmt.Errorf("branch: unknown predictor kind %v", cfg.Kind)
	}
}

// counter is a saturating 2-bit counter: 0,1 predict not-taken; 2,3 taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// ctrNext is counter.update as a lookup table, indexed c<<1|takenBit —
// the branchless form the per-µop PredictUpdate paths use.
var ctrNext = [8]counter{0, 1, 0, 2, 1, 3, 2, 3}

// Bimodal is a per-PC 2-bit counter table.
type Bimodal struct {
	table []counter
	mask  uint64
}

func newBimodal(bits int) *Bimodal {
	n := 1 << bits
	t := make([]counter, n)
	for i := range t {
		t[i] = 2 // weakly taken: most branches are taken
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// PredictUpdate implements Predictor.
func (b *Bimodal) PredictUpdate(pc uint64, taken bool) bool {
	i := b.index(pc)
	c := b.table[i]
	b.table[i] = ctrNext[int(c)<<1|int(boolBit(taken))]
	return c.taken()
}

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Gshare XORs global history with the PC to index a 2-bit counter table.
type Gshare struct {
	table    []counter
	mask     uint64
	history  uint64
	histMask uint64
}

func newGshare(tableBits, histBits int) *Gshare {
	n := 1 << tableBits
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(n - 1), histMask: (1 << histBits) - 1}
}

func (g *Gshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. The history is updated with the actual
// outcome (idealized immediate update, as in trace-driven simulators).
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history = ((g.history << 1) | boolBit(taken)) & g.histMask
}

// PredictUpdate implements Predictor.
func (g *Gshare) PredictUpdate(pc uint64, taken bool) bool {
	i := g.index(pc)
	c := g.table[i]
	bit := boolBit(taken)
	g.table[i] = ctrNext[int(c)<<1|int(bit)]
	g.history = ((g.history << 1) | bit) & g.histMask
	return c.taken()
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.history = 0
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

// Tournament combines a bimodal and a gshare component with a per-PC
// 2-bit chooser (Alpha 21264 style).
type Tournament struct {
	bimodal *Bimodal
	gshare  *Gshare
	chooser []counter // 0,1 → use bimodal; 2,3 → use gshare
	mask    uint64
}

func newTournament(tableBits, histBits int) *Tournament {
	n := 1 << tableBits
	ch := make([]counter, n)
	for i := range ch {
		ch[i] = 2 // slight initial preference for the history component
	}
	return &Tournament{
		bimodal: newBimodal(tableBits),
		gshare:  newGshare(tableBits, histBits),
		chooser: ch,
		mask:    uint64(n - 1),
	}
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[(pc>>2)&t.mask].taken() {
		return t.gshare.Predict(pc)
	}
	return t.bimodal.Predict(pc)
}

// Update implements Predictor: the chooser is trained toward whichever
// component was correct when they disagree.
func (t *Tournament) Update(pc uint64, taken bool) {
	pb := t.bimodal.Predict(pc)
	pg := t.gshare.Predict(pc)
	i := (pc >> 2) & t.mask
	if pb != pg {
		t.chooser[i] = t.chooser[i].update(pg == taken)
	}
	t.bimodal.Update(pc, taken)
	t.gshare.Update(pc, taken)
}

// PredictUpdate implements Predictor: one pass over the component
// tables — Predict followed by Update touches the bimodal table twice
// and the gshare table twice (the history only advances in Update, so
// both reads index the same entry); the fused form reads and writes
// each entry once with identical results.
func (t *Tournament) PredictUpdate(pc uint64, taken bool) bool {
	bi := t.bimodal.index(pc)
	cb := t.bimodal.table[bi]
	gi := t.gshare.index(pc)
	cg := t.gshare.table[gi]
	pb, pg := cb.taken(), cg.taken()
	ci := (pc >> 2) & t.mask
	pred := pb
	if t.chooser[ci].taken() {
		pred = pg
	}
	if pb != pg {
		t.chooser[ci] = t.chooser[ci].update(pg == taken)
	}
	bit := boolBit(taken)
	t.bimodal.table[bi] = ctrNext[int(cb)<<1|int(bit)]
	t.gshare.table[gi] = ctrNext[int(cg)<<1|int(bit)]
	t.gshare.history = ((t.gshare.history << 1) | bit) & t.gshare.histMask
	return pred
}

// Reset implements Predictor.
func (t *Tournament) Reset() {
	t.bimodal.Reset()
	t.gshare.Reset()
	for i := range t.chooser {
		t.chooser[i] = 2
	}
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
