package workload

import (
	"fmt"

	"repro/internal/control"
)

// ControllerParams configures a controller instance.
type ControllerParams struct {
	// Rho is the target conflict ratio for the adaptive controllers.
	Rho float64
	// M0 is the initial processor count (0 = 2, the paper's default).
	M0 int
	// FixedM is the processor count for the "fixed" controller.
	FixedM int
}

// ControllerNames returns the registered controller names.
func ControllerNames() []string {
	return []string{"hybrid", "model-based", "recurrence-a", "recurrence-b", "fixed"}
}

// HasController reports whether name is a registered controller.
func HasController(name string) bool {
	for _, n := range ControllerNames() {
		if n == name {
			return true
		}
	}
	return false
}

// NewController instantiates the named controller. Adaptive controllers
// require Rho in (0,1); the "fixed" controller ignores Rho and uses
// FixedM as-is.
func NewController(name string, p ControllerParams) (control.Controller, error) {
	if name == "fixed" {
		return control.Fixed{Procs: p.FixedM}, nil
	}
	if p.Rho <= 0 || p.Rho >= 1 {
		return nil, fmt.Errorf("workload: controller %q needs rho in (0,1), got %v", name, p.Rho)
	}
	m0 := p.M0
	if m0 <= 0 {
		m0 = 2
	}
	switch name {
	case "hybrid":
		cfg := control.DefaultHybridConfig(p.Rho)
		cfg.M0 = m0
		return control.NewHybrid(cfg), nil
	case "model-based":
		return control.NewModelBased(p.Rho, m0), nil
	case "recurrence-a":
		return control.NewRecurrenceA(p.Rho, m0), nil
	case "recurrence-b":
		return control.NewRecurrenceB(p.Rho, m0), nil
	default:
		return nil, fmt.Errorf("workload: unknown controller %q", name)
	}
}
