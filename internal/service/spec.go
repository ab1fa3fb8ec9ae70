package service

import (
	"encoding/json"
	"time"

	"repro/internal/faultinject"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("100ms") and unmarshals from either a duration string or a bare
// number of milliseconds, so hand-written JSON specs stay readable.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings or numeric milliseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	*d = Duration(ms * float64(time.Millisecond))
	return nil
}

// FaultSpec is the wire-level fault-injection request carried by a
// JobSpec. Only the synthetic workloads ("cc", "spin") accept one; see
// workload.CapFault. Rates are per-task probabilities in [0,1].
type FaultSpec struct {
	// Seed drives the fault plan; 0 inherits the job's seed.
	Seed uint64 `json:"seed,omitempty"`
	// PanicRate is the fraction of tasks that panic transiently.
	PanicRate float64 `json:"panic_rate,omitempty"`
	// ErrorRate is the fraction of tasks that error transiently.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// PoisonRate is the fraction of tasks that fail every attempt and
	// end up quarantined (the job finishes done-degraded).
	PoisonRate float64 `json:"poison_rate,omitempty"`
	// TransientAttempts bounds how many attempts a transient victim
	// fails; it is clamped to the job's retry budget. 0 defaults to 1
	// when any transient rate is set.
	TransientAttempts int `json:"transient_attempts,omitempty"`
	// DelayRate is the fraction of tasks that stall Delay per attempt.
	DelayRate float64 `json:"delay_rate,omitempty"`
	// Delay is the per-attempt stall for delayed tasks.
	Delay Duration `json:"delay,omitempty"`
}

// config lowers the wire spec to the injector's Config, defaulting the
// fault seed to the job seed so a job spec is self-contained.
func (f *FaultSpec) config(jobSeed uint64) *faultinject.Config {
	if f == nil {
		return nil
	}
	seed := f.Seed
	if seed == 0 {
		seed = jobSeed
	}
	ta := f.TransientAttempts
	if ta == 0 && f.PanicRate+f.ErrorRate > 0 {
		ta = 1
	}
	return &faultinject.Config{
		Seed:              seed,
		PanicRate:         f.PanicRate,
		ErrorRate:         f.ErrorRate,
		PoisonRate:        f.PoisonRate,
		TransientAttempts: ta,
		DelayRate:         f.DelayRate,
		Delay:             time.Duration(f.Delay),
	}
}
