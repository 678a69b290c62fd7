package uarch

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentAccess contends every registry entry point at
// once — Register, ByName, Names, Derive — so the
// RWMutex discipline is actually exercised under -race. Registrations
// are process-global and permanent, so all test names are namespaced.
func TestRegistryConcurrentAccess(t *testing.T) {
	base, err := ByName("core2")
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("racetest-uarch-%d", i)
			if err := Register(name, func() *Machine {
				m := *base
				m.Name = name
				return &m
			}); err != nil {
				t.Errorf("Register(%s): %v", name, err)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ByName("core2"); err != nil {
				t.Errorf("ByName(core2): %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if names := Names(); len(names) == 0 {
				t.Error("Names() empty during concurrent registration")
			}
		}()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Derive(base, fmt.Sprintf("racetest-derive-%d", i), Overrides{ROBSize: 32 + i})
			if err != nil {
				t.Errorf("Derive: %v", err)
				return
			}
			if d.ROBSize != 32+i {
				t.Errorf("Derive applied ROBSize %d, want %d", d.ROBSize, 32+i)
			}
		}(i)
	}
	wg.Wait()

	// Every concurrent registration must be visible afterwards.
	for i := 0; i < n; i++ {
		if _, err := ByName(fmt.Sprintf("racetest-uarch-%d", i)); err != nil {
			t.Errorf("registration lost: %v", err)
		}
	}
}

// TestRegisterConcurrentDuplicates races many registrations of one name:
// exactly one must win, the rest must error, and none may panic or
// corrupt the map.
func TestRegisterConcurrentDuplicates(t *testing.T) {
	base, err := ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Register("racetest-dup", func() *Machine {
				m := *base
				m.Name = "racetest-dup"
				return &m
			})
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		}
	}
	if won != 1 {
		t.Errorf("%d registrations of the same name succeeded, want exactly 1", won)
	}
}
