package uarch

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrUnknownMachine is wrapped by ByName failures for names absent from
// the registry. Callers (the serving layer's error classifier) match it
// with errors.Is — never by error text, which a machine name could
// collide with.
var ErrUnknownMachine = errors.New("unknown machine")

// The machine registry maps names to configuration factories, in the
// declarative-registry style config-driven systems use for module
// wiring: consumers ask for machines by name and never hard-code the
// available set. The stock paper machines self-register in init; derived
// variants are built ad hoc (Derive) without touching the registry.
var (
	regMu    sync.RWMutex
	registry = map[string]func() *Machine{}
)

// Register adds a named machine factory. The factory must return a fresh
// Machine on every call (callers mutate the returned value freely). The
// name must match the Name of the machines the factory produces.
// Registering a name twice is an error, so two packages cannot silently
// fight over a configuration.
func Register(name string, factory func() *Machine) error {
	if name == "" {
		return fmt.Errorf("uarch: cannot register machine with empty name")
	}
	if factory == nil {
		return fmt.Errorf("uarch: nil factory for machine %q", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("uarch: machine %q already registered", name)
	}
	registry[name] = factory
	return nil
}

// MustRegister is Register, panicking on error. For init-time wiring of
// statically known machines, where a failure is a programming bug.
func MustRegister(name string, factory func() *Machine) {
	if err := Register(name, factory); err != nil {
		panic(err)
	}
}

// Names returns all registered machine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the registered machine.
func ByName(name string) (*Machine, error) {
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("uarch: %w %q (registered: %v)", ErrUnknownMachine, name, Names())
	}
	m := factory()
	if m.Name != name {
		return nil, fmt.Errorf("uarch: factory for %q produced machine named %q", name, m.Name)
	}
	return m, nil
}

// CacheOverrides selects cache-geometry parameters to change in a
// derived machine. Zero-valued fields keep the base geometry.
type CacheOverrides struct {
	SizeBytes int `json:"sizeBytes,omitempty"`
	LineBytes int `json:"lineBytes,omitempty"`
	Assoc     int `json:"assoc,omitempty"`
	LatCycles int `json:"latCycles,omitempty"`
}

func (o CacheOverrides) apply(c *CacheConfig) {
	if o.SizeBytes > 0 {
		c.SizeBytes = o.SizeBytes
	}
	if o.LineBytes > 0 {
		c.LineBytes = o.LineBytes
	}
	if o.Assoc > 0 {
		c.Assoc = o.Assoc
	}
	if o.LatCycles > 0 {
		c.LatCycles = o.LatCycles
	}
}

// Overrides selects machine parameters to change in a derived machine.
// Zero-valued fields keep the base value (every overridable parameter is
// strictly positive on a valid machine, except FusionRate, which uses a
// pointer so an explicit 0 is expressible). The JSON form is what
// campaign scenario files embed.
type Overrides struct {
	DispatchWidth int `json:"dispatchWidth,omitempty"`
	IssueWidth    int `json:"issueWidth,omitempty"`
	CommitWidth   int `json:"commitWidth,omitempty"`
	FrontEndDepth int `json:"frontEndDepth,omitempty"`
	ROBSize       int `json:"robSize,omitempty"`
	IQSize        int `json:"iqSize,omitempty"`
	LoadQueueSize int `json:"loadQueueSize,omitempty"`
	MSHRs         int `json:"mshrs,omitempty"`
	MemLat        int `json:"memLat,omitempty"`

	L1I CacheOverrides `json:"l1i,omitzero"`
	L1D CacheOverrides `json:"l1d,omitzero"`
	L2  CacheOverrides `json:"l2,omitzero"`
	L3  CacheOverrides `json:"l3,omitzero"`

	FusionRate *float64 `json:"fusionRate,omitempty"`
}

// Derive produces a named variant of base with the given overrides
// applied, leaving base untouched. The result is validated, so a
// geometrically impossible variant (say, an IQ larger than the shrunken
// ROB) fails here rather than deep inside the simulator. ConfigHash
// flows through automatically: any effective override — including the
// new name — yields a distinct hash, so run stores never alias a variant
// to its base.
func Derive(base *Machine, name string, ov Overrides) (*Machine, error) {
	if name == "" {
		return nil, fmt.Errorf("uarch: derived machine needs a name")
	}
	m := *base
	m.Name = name
	for _, f := range []struct {
		v   int
		dst *int
	}{
		{ov.DispatchWidth, &m.DispatchWidth},
		{ov.IssueWidth, &m.IssueWidth},
		{ov.CommitWidth, &m.CommitWidth},
		{ov.FrontEndDepth, &m.FrontEndDepth},
		{ov.ROBSize, &m.ROBSize},
		{ov.IQSize, &m.IQSize},
		{ov.LoadQueueSize, &m.LoadQueueSize},
		{ov.MSHRs, &m.MSHRs},
		{ov.MemLat, &m.MemLat},
	} {
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	ov.L1I.apply(&m.L1I)
	ov.L1D.apply(&m.L1D)
	ov.L2.apply(&m.L2)
	ov.L3.apply(&m.L3)
	if ov.FusionRate != nil {
		m.FusionRate = *ov.FusionRate
	}
	// Shrinking the ROB under the base IQ is the one coupling a sweep
	// constantly trips over; follow the window down unless the caller
	// pinned the IQ explicitly.
	if ov.IQSize == 0 && m.IQSize > m.ROBSize {
		m.IQSize = m.ROBSize
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("uarch: derive %q from %q: %w", name, base.Name, err)
	}
	return &m, nil
}
