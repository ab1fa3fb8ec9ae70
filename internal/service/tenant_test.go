package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTokenBucketRefillAndWait(t *testing.T) {
	b := newBucket(2, 2) // 2/s, burst 2
	base := time.Now()
	if ok, _ := b.take(base); !ok {
		t.Fatal("take 1 of burst 2 failed")
	}
	if ok, _ := b.take(base); !ok {
		t.Fatal("take 2 of burst 2 failed")
	}
	ok, wait := b.take(base)
	if ok {
		t.Fatal("take 3 of burst 2 succeeded")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("wait %v for 1 token at 2/s, want 500ms", wait)
	}
	// Partial refill shrinks the computed wait proportionally.
	ok, wait = b.take(base.Add(250 * time.Millisecond))
	if ok || wait != 250*time.Millisecond {
		t.Fatalf("ok=%v wait=%v after 250ms refill, want !ok 250ms", ok, wait)
	}
	// Full refill admits again.
	if ok, _ := b.take(base.Add(500 * time.Millisecond)); !ok {
		t.Fatal("take after full refill failed")
	}
	// Tokens cap at burst: a long idle stretch does not bank extras.
	b2 := newBucket(10, 1)
	b2.take(base)
	if ok, _ := b2.take(base.Add(time.Hour)); !ok {
		t.Fatal("take after idle failed")
	}
	if ok, _ := b2.take(base.Add(time.Hour)); ok {
		t.Fatal("burst-1 bucket admitted twice in an instant after idle")
	}
}

func TestTokenBucketDefaults(t *testing.T) {
	// Rate 0 disables the bucket entirely.
	b := newBucket(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := b.take(time.Now()); !ok {
			t.Fatal("unlimited bucket rejected")
		}
	}
	// Burst defaults to max(1, ceil(rate)).
	if b := newBucket(0.4, 0); b.burst != 1 {
		t.Fatalf("burst %v for rate 0.4, want 1", b.burst)
	}
	if b := newBucket(3.5, 0); b.burst != 4 {
		t.Fatalf("burst %v for rate 3.5, want 4", b.burst)
	}
}

func writeTenants(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadTenants(t *testing.T) {
	p := writeTenants(t, `{
		"defaults": {"weight": 1, "rate": 5},
		"tenants": [
			{"name": "gold", "weight": 3, "priority": 7},
			{"name": "batch", "weight": -1, "max_pending": 4}
		]
	}`)
	tf, err := LoadTenants(p)
	if err != nil {
		t.Fatalf("LoadTenants: %v", err)
	}
	if tf.Defaults.Rate != 5 || len(tf.Tenants) != 2 {
		t.Fatalf("parsed %+v", tf)
	}
	if tf.Tenants[0].Name != "gold" || tf.Tenants[0].Weight != 3 || tf.Tenants[0].Priority != 7 {
		t.Fatalf("gold parsed as %+v", tf.Tenants[0])
	}
	if tf.Tenants[1].Weight != -1 || tf.Tenants[1].MaxPending != 4 {
		t.Fatalf("batch parsed as %+v", tf.Tenants[1])
	}
}

func TestLoadTenantsRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{"tenants": [`, "parsing"},
		{"unnamed tenant", `{"tenants": [{"weight": 2}]}`, "no name"},
		{"duplicate", `{"tenants": [{"name": "a"}, {"name": "a"}]}`, "duplicate"},
		{"bad name", `{"tenants": [{"name": "a/b"}]}`, "contains"},
		{"negative rate", `{"tenants": [{"name": "a", "rate": -1}]}`, "rate"},
		{"negative burst", `{"tenants": [{"name": "a", "burst": -2}]}`, "burst"},
		{"priority range", `{"tenants": [{"name": "a", "priority": 10}]}`, "priority"},
		{"bad defaults", `{"defaults": {"max_pending": -1}}`, "max_pending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTenants(writeTenants(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err %v, want containing %q", err, tc.wantErr)
			}
		})
	}
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzTenantsFile: whatever bytes a -tenants file holds, parsing gives
// an error or a config that passes the same checks again, never a
// panic.
func FuzzTenantsFile(f *testing.F) {
	f.Add([]byte(`{"defaults": {"weight": 1, "rate": 5}, "tenants": [{"name": "gold", "weight": 3, "priority": 7}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "rate": 1e308, "burst": 9223372036854775807}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a"}, {"name": "a"}]}`))
	f.Add([]byte(`{"defaults": {"name": "x/y", "priority": -1}}`))
	f.Add([]byte(`{"tenants": null}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, b []byte) {
		tf, err := parseTenants("fuzz.json", b)
		if err != nil {
			return
		}
		if err := tf.Defaults.validate(); err != nil {
			t.Fatalf("accepted defaults fail validation: %v", err)
		}
		seen := make(map[string]bool)
		for _, tc := range tf.Tenants {
			if err := tc.validate(); err != nil || tc.Name == "" || seen[tc.Name] {
				t.Fatalf("accepted tenant %+v: err %v, duplicate %v", tc, err, seen[tc.Name])
			}
			seen[tc.Name] = true
		}
	})
}
