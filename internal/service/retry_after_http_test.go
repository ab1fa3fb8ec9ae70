package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// TestRetryAfterComputed asserts the 429 headers are dynamic: a
// rate-limited tenant's rejection carries the bucket's actual refill
// time (sub-second, shrinking as the bucket refills) instead of the
// old constant Retry-After: 1.
func TestRetryAfterComputed(t *testing.T) {
	// Rate 0.5/s, burst 1: after one admission the bucket needs ~2s to
	// refill, a window wide enough that slow CI cannot race it closed.
	_, c := startServer(t, service.Config{
		Workers: 1, QueueCap: 16,
		Tenants: []service.TenantConfig{{Name: "metered", Rate: 0.5, Burst: 1}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	spec := service.JobSpec{Workload: "cc", Controller: "hybrid", Size: 200, Parallel: 1, Tenant: "metered"}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}

	// Raw request so the headers themselves are visible.
	post := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(spec)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(service.RejectClassHeader); got != service.RejectQuota {
		t.Fatalf("reject class header %q, want %q", got, service.RejectQuota)
	}
	ms, err := strconv.ParseInt(resp.Header.Get(service.RetryAfterMsHeader), 10, 64)
	if err != nil {
		t.Fatalf("missing/invalid %s header: %v", service.RetryAfterMsHeader, err)
	}
	// Rate 0.5/s means the bucket refills in ~2s — a computed hint must
	// say so, where the pre-tenant behavior was a constant 1 second.
	if ms <= 1000 || ms > 2100 {
		t.Fatalf("retry-after %dms, want the computed ~2000ms for rate 0.5/s (not the old 1s constant)", ms)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("standard Retry-After header missing")
	}

	// A later rejection reflects the refilled bucket: the hint shrinks.
	time.Sleep(300 * time.Millisecond)
	resp2 := post()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp2.StatusCode)
	}
	ms2, err := strconv.ParseInt(resp2.Header.Get(service.RetryAfterMsHeader), 10, 64)
	if err != nil {
		t.Fatalf("third submit %s header: %v", service.RetryAfterMsHeader, err)
	}
	if ms2 >= ms {
		t.Fatalf("retry-after did not shrink as the bucket refilled: %dms then %dms", ms, ms2)
	}

	// The client surfaces the same computed wait.
	_, err = c.Submit(ctx, spec)
	var be *client.BusyError
	if !errors.As(err, &be) || be.RetryAfter <= 0 || be.RetryAfter > 2100*time.Millisecond {
		t.Fatalf("client submit err %v, want BusyError with the computed bucket wait", err)
	}
}
