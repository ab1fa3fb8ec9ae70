package service

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// DefaultTenant is the tenant jobs belong to when JobSpec.Tenant is
// empty: a service with no tenant configuration behaves exactly like
// the pre-tenant single global queue.
const DefaultTenant = "default"

// Job priorities. 0 in a JobSpec means "unset" and resolves to the
// tenant's default priority (or defaultPriority); the scheduler always
// works with effective priorities in [MinPriority, MaxPriority].
const (
	MinPriority     = 1
	MaxPriority     = 9
	defaultPriority = 5
)

// TenantConfig is one tenant's admission and scheduling policy. Zero
// fields take the documented defaults, so a config file only states
// what deviates.
type TenantConfig struct {
	// Name identifies the tenant (JobSpec.Tenant). Ignored on
	// Config.TenantDefaults.
	Name string `json:"name,omitempty"`
	// Weight is the deficit-round-robin quantum: under contention a
	// weight-3 tenant dequeues 3 jobs for every 1 a weight-1 tenant
	// does. 0 defaults to 1. A negative weight marks a scavenger
	// tenant: it never starves (the scheduler grants it a fractional
	// quantum) but progresses only at a trickle under contention.
	Weight int `json:"weight,omitempty"`
	// Rate is the token-bucket refill rate in admissions per second;
	// 0 means unlimited (no bucket).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity (max admissions in an instant).
	// 0 defaults to max(1, ceil(Rate)).
	Burst int `json:"burst,omitempty"`
	// MaxPending bounds this tenant's queued jobs so one tenant's
	// backlog can never consume the global queue. 0 defaults to the
	// global QueueCap (i.e. only the global bound applies).
	MaxPending int `json:"max_pending,omitempty"`
	// Priority is the default job priority (1..9, higher runs first)
	// when a spec does not set one. 0 defaults to 5.
	Priority int `json:"priority,omitempty"`
}

// validate rejects out-of-range tenant policy values.
func (t TenantConfig) validate() error {
	if t.Name != "" {
		if err := validTenantName(t.Name); err != nil {
			return err
		}
	}
	if t.Rate < 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
		return fmt.Errorf("tenant %q: rate %v invalid", t.Name, t.Rate)
	}
	if t.Burst < 0 {
		return fmt.Errorf("tenant %q: burst %d negative", t.Name, t.Burst)
	}
	if t.MaxPending < 0 {
		return fmt.Errorf("tenant %q: max_pending %d negative", t.Name, t.MaxPending)
	}
	if t.Priority < 0 || t.Priority > MaxPriority {
		return fmt.Errorf("tenant %q: priority %d out of [0,%d]", t.Name, t.Priority, MaxPriority)
	}
	return nil
}

// validTenantName bounds tenant names to the same path- and
// journal-safe alphabet as job ids.
func validTenantName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("tenant name must be 1..64 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tenant name %q contains %q (want [A-Za-z0-9._-])", name, c)
		}
	}
	return nil
}

// TenantsFile is the on-disk shape of the -tenants config file:
// defaults applied to tenants the file does not name, plus per-tenant
// overrides.
type TenantsFile struct {
	Defaults TenantConfig   `json:"defaults"`
	Tenants  []TenantConfig `json:"tenants"`
}

// LoadTenants reads and validates a -tenants config file.
func LoadTenants(path string) (TenantsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return TenantsFile{}, fmt.Errorf("service: reading tenants file: %w", err)
	}
	return parseTenants(path, b)
}

// parseTenants parses and validates the bytes of the tenants file at
// path (named in errors).
func parseTenants(path string, b []byte) (TenantsFile, error) {
	var tf TenantsFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return tf, fmt.Errorf("service: parsing tenants file %s: %w", path, err)
	}
	if err := tf.Defaults.validate(); err != nil {
		return tf, fmt.Errorf("service: tenants file %s: defaults: %w", path, err)
	}
	seen := make(map[string]bool, len(tf.Tenants))
	for i, t := range tf.Tenants {
		if t.Name == "" {
			return tf, fmt.Errorf("service: tenants file %s: tenants[%d] has no name", path, i)
		}
		if err := t.validate(); err != nil {
			return tf, fmt.Errorf("service: tenants file %s: %w", path, err)
		}
		if seen[t.Name] {
			return tf, fmt.Errorf("service: tenants file %s: duplicate tenant %q", path, t.Name)
		}
		seen[t.Name] = true
	}
	return tf, nil
}

// tokenBucket is a lazily refilled token bucket. rate <= 0 disables it
// (every take succeeds). It is guarded by the scheduler's mutex.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) tokenBucket {
	b := float64(burst)
	if rate > 0 && b <= 0 {
		b = math.Ceil(rate)
		if b < 1 {
			b = 1
		}
	}
	return tokenBucket{rate: rate, burst: b, tokens: b}
}

// take consumes one token. On failure it reports how long until the
// bucket refills enough for one admission — the computed Retry-After.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}
