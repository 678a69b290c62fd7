package experiments

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// MachineSpec names one campaign machine: either a registered machine
// ("name" alone) or a variant derived from a registered base ("base" +
// "overrides", published under "name").
type MachineSpec struct {
	Name      string          `json:"name"`
	Base      string          `json:"base,omitempty"`
	Overrides uarch.Overrides `json:"overrides,omitzero"`
}

// Campaign is a declarative experiment grid: which machines run which
// suites, and how the models are fitted. It is the JSON schema of
// scenario files; the zero fit options inherit the Lab's defaults.
type Campaign struct {
	Machines  []MachineSpec `json:"machines"`
	Suites    []string      `json:"suites"`
	NumOps    int           `json:"ops,omitempty"`
	FitStarts int           `json:"fitStarts,omitempty"`
	Seed      uint64        `json:"seed,omitempty"`
}

// PaperCampaign returns the paper's fixed grid: the three stock machines
// by the two SPEC-like suites.
func PaperCampaign() Campaign {
	return Campaign{
		Machines: []MachineSpec{{Name: "pentium4"}, {Name: "core2"}, {Name: "corei7"}},
		Suites:   []string{"cpu2000", "cpu2006"},
	}
}

// ParseCampaign decodes a scenario document. Unknown fields are errors,
// so a typoed override name fails loudly instead of silently running the
// base configuration.
func ParseCampaign(data []byte) (Campaign, error) {
	var c Campaign
	if err := DecodeStrict(bytes.NewReader(data), &c); err != nil {
		return Campaign{}, fmt.Errorf("experiments: parse campaign: %w", err)
	}
	if len(c.Machines) == 0 {
		return Campaign{}, fmt.Errorf("experiments: campaign has no machines")
	}
	if len(c.Suites) == 0 {
		return Campaign{}, fmt.Errorf("experiments: campaign has no suites")
	}
	return c, nil
}

// LoadCampaign reads and parses a scenario file.
func LoadCampaign(path string) (Campaign, error) { return loadFile(path, ParseCampaign) }

// loadFile reads the file at path and parses it, naming the file in any
// parse error.
func loadFile[S any](path string, parse func([]byte) (S, error)) (S, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero S
		return zero, fmt.Errorf("experiments: %w", err)
	}
	spec, err := parse(data)
	if err != nil {
		return spec, fmt.Errorf("%w (in %s)", err, path)
	}
	return spec, nil
}

// Resolve materializes the spec through the uarch registry: a registered
// machine looked up by name, or a validated derivation from a registered
// base. This is the one spec-to-machine path, shared by campaign
// resolution and the serving layer's request decoding.
func (ms MachineSpec) Resolve() (*uarch.Machine, error) {
	if ms.Name == "" {
		return nil, fmt.Errorf("experiments: machine spec with empty name")
	}
	if ms.Base == "" {
		return uarch.ByName(ms.Name)
	}
	base, err := uarch.ByName(ms.Base)
	if err != nil {
		return nil, err
	}
	return uarch.Derive(base, ms.Name, ms.Overrides)
}

// resolveMachines materializes the campaign's machine list through the
// uarch registry, derivations included.
func (c Campaign) resolveMachines() ([]*uarch.Machine, error) {
	out := make([]*uarch.Machine, 0, len(c.Machines))
	seen := map[string]bool{}
	for _, ms := range c.Machines {
		if seen[ms.Name] {
			return nil, fmt.Errorf("experiments: campaign lists machine %q twice", ms.Name)
		}
		seen[ms.Name] = true
		m, err := ms.Resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// NewCampaignLab builds a Lab executing the given campaign. Explicit
// Options fields win over the campaign's fit options; both fall back to
// the usual defaults. The effective op count must not exceed
// trace.MaxFileOps.
func NewCampaignLab(c Campaign, opts Options) (*Lab, error) {
	if opts.NumOps <= 0 {
		opts.NumOps = c.NumOps
	}
	if opts.FitStarts <= 0 {
		opts.FitStarts = c.FitStarts
	}
	if opts.Seed == 0 {
		opts.Seed = c.Seed
	}
	opts = opts.withDefaults()
	// A longer trace could not be exported to a trace file, and
	// materializing it would exhaust memory before anything simulates.
	if opts.NumOps > trace.MaxFileOps {
		return nil, fmt.Errorf("experiments: %d ops per workload exceed the %d-op trace cap", opts.NumOps, trace.MaxFileOps)
	}
	machines, err := c.resolveMachines()
	if err != nil {
		return nil, err
	}
	suiteList := make([]suites.Suite, 0, len(c.Suites))
	seen := map[string]bool{}
	for _, name := range c.Suites {
		if seen[name] {
			return nil, fmt.Errorf("experiments: campaign lists suite %q twice", name)
		}
		seen[name] = true
		s, err := suites.ByName(name, suites.Options{NumOps: opts.NumOps, SeedBase: opts.SeedBase})
		if err != nil {
			return nil, err
		}
		suiteList = append(suiteList, s)
	}
	return newLab(machines, suiteList, opts)
}

// NewCustomLab builds a Lab over explicit machine and suite values,
// bypassing the registries — the entry point for programmatic grids such
// as parameter sweeps over unregistered variants.
func NewCustomLab(machines []*uarch.Machine, suiteList []suites.Suite, opts Options) (*Lab, error) {
	return newLab(machines, suiteList, opts.withDefaults())
}

func newLab(machines []*uarch.Machine, suiteList []suites.Suite, opts Options) (*Lab, error) {
	if len(machines) == 0 || len(suiteList) == 0 {
		return nil, fmt.Errorf("experiments: lab needs at least one machine and one suite")
	}
	l := &Lab{
		opts:     opts,
		machines: machines,
		suites:   suiteList,
		suiteSet: map[string]suites.Suite{},
		runs:     map[RunKey]*sim.Result{},
		models:   map[modelKey]*core.Model{},
	}
	seenM := map[string]bool{}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if seenM[m.Name] {
			return nil, fmt.Errorf("experiments: duplicate machine %q in lab", m.Name)
		}
		seenM[m.Name] = true
	}
	for _, s := range suiteList {
		if _, dup := l.suiteSet[s.Name]; dup {
			return nil, fmt.Errorf("experiments: duplicate suite %q in lab", s.Name)
		}
		l.suiteSet[s.Name] = s
	}
	return l, nil
}
