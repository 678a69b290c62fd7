package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// AblationResult quantifies one structural choice of the model: the
// cross-validated accuracy with the choice intact vs. removed. The
// paper's Section 3 argues for each of these choices qualitatively; the
// ablations measure them.
type AblationResult struct {
	Name         string
	Machine      string
	FullCVErr    float64 // cross-validated MARE, full model
	AblatedCVErr float64 // cross-validated MARE, ablated model
}

// Ablations fits ablated model variants on cpu2000 and evaluates on
// cpu2006 (the harder transfer direction) for the given machine. The
// full model is Model's cpu2000 fit, and every variant fits through the
// run store like it, so a warm store runs no regression.
func (l *Lab) Ablations(machine string) ([]AblationResult, string, error) {
	trainObs, err := l.Observations(machine, "cpu2000")
	if err != nil {
		return nil, "", err
	}
	evalObs, err := l.Observations(machine, "cpu2006")
	if err != nil {
		return nil, "", err
	}
	mc, err := l.Machine(machine)
	if err != nil {
		return nil, "", err
	}
	cvErr := func(m *core.Model) float64 {
		_, acc := Score(m, evalObs)
		return acc.AvgRelErr
	}
	fullModel, err := l.Model(machine, "cpu2000")
	if err != nil {
		return nil, "", err
	}
	full := cvErr(fullModel)
	variants := []struct {
		name string
		opts core.FitOptions
	}{
		{"additive-branch (Eq.2 multiplicative→additive)", core.FitOptions{AdditiveBranch: true}},
		{"constant-MLP (Eq.3 power law→constant)", core.FitOptions{ConstantMLP: true}},
		{"unscaled-stall (Eq.4 without miss scaling)", core.FitOptions{UnscaledStall: true}},
		{"no-window-cap (Eq.2 without min(128,·))", core.FitOptions{NoWindowCap: true}},
	}
	var out []AblationResult
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations on %s (train cpu2000, evaluate cpu2006):\n", machine)
	fmt.Fprintf(&b, "  %-48s %10s %10s\n", "variant", "full", "ablated")
	for _, v := range variants {
		m, err := l.fit(mc, "cpu2000", trainObs, v.opts)
		if err != nil {
			return nil, "", err
		}
		e := cvErr(m)
		out = append(out, AblationResult{Name: v.name, Machine: machine, FullCVErr: full, AblatedCVErr: e})
		fmt.Fprintf(&b, "  %-48s %9.1f%% %9.1f%%\n", v.name, 100*full, 100*e)
	}
	return out, b.String(), nil
}
