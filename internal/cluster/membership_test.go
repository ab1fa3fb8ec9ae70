package cluster

import (
	"testing"
	"time"
)

// fakeClock drives the membership table deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTable() (*memberTable, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return newMemberTable(clk.now), clk
}

func renewOK(t *testing.T, tbl *memberTable, id string, inc int64, ttl time.Duration) renewResponse {
	t.Helper()
	resp, _ := tbl.renew(renewRequest{ID: id, Addr: "http://x/" + id, Incarnation: inc}, ttl)
	if !resp.OK || resp.Revoked {
		t.Fatalf("renew(%s, inc=%d) refused: %+v", id, inc, resp)
	}
	return resp
}

// The renewal-vs-expiry race, order 1: the heartbeat lands just before
// the sweep. The lease must survive and the sweep must not kill it.
func TestRenewalBeatsExpiry(t *testing.T) {
	tbl, clk := newTestTable()
	ttl := time.Second
	renewOK(t, tbl, "n1", 1, ttl)

	clk.advance(ttl - time.Millisecond) // 1ms before the deadline
	renewOK(t, tbl, "n1", 1, ttl)       // heartbeat wins the race

	clk.advance(2 * time.Millisecond) // past the *old* deadline
	if dead := tbl.sweep(); len(dead) != 0 {
		t.Fatalf("sweep declared %v dead after an in-time renewal", dead)
	}
	m, _ := tbl.get("n1")
	if m.State != StateAlive {
		t.Fatalf("n1 state = %s, want alive", m.State)
	}
}

// The same race, order 2: the lease expires first (whether the sweep
// has run yet or not), then the heartbeat arrives. Expiry alone no
// longer revokes: the node parks in suspect and the late heartbeat
// restores it. Only once probes have proven it dead — its jobs may be
// handed off — is the same-incarnation heartbeat refused for good.
func TestExpiryBeatsRenewal(t *testing.T) {
	for _, sweepFirst := range []bool{true, false} {
		tbl, clk := newTestTable()
		ttl := time.Second
		renewOK(t, tbl, "n1", 1, ttl)

		clk.advance(ttl) // exactly at the deadline: expired
		if sweepFirst {
			if sus := tbl.sweep(); len(sus) != 1 || sus[0] != "n1" {
				t.Fatalf("sweep = %v, want [n1]", sus)
			}
		}
		resp, _ := tbl.renew(renewRequest{ID: "n1", Addr: "a", Incarnation: 1}, ttl)
		if !resp.OK || resp.Revoked {
			t.Fatalf("sweepFirst=%v: late renewal should restore the suspect lease: %+v", sweepFirst, resp)
		}
		if m, _ := tbl.get("n1"); m.State != StateAlive {
			t.Fatalf("sweepFirst=%v: n1 state = %s after restore, want alive", sweepFirst, m.State)
		}

		// Probes prove it dead: now the heartbeat is refused.
		clk.advance(2 * ttl)
		tbl.sweep()
		if !tbl.judge("n1", false, 0) {
			t.Fatal("judge with zero grace should declare the suspect dead")
		}
		resp, _ = tbl.renew(renewRequest{ID: "n1", Addr: "a", Incarnation: 1}, ttl)
		if !resp.Revoked {
			t.Fatalf("sweepFirst=%v: renewal after proven death not revoked: %+v", sweepFirst, resp)
		}
	}
}

// The suspect lifecycle: expiry suspects, a node that answers probes is
// never declared dead no matter how long its heartbeats stay lost, and
// sustained probe failure kills it only past the grace period.
func TestSuspectLifecycle(t *testing.T) {
	tbl, clk := newTestTable()
	ttl := time.Second
	grace := 2 * ttl
	renewOK(t, tbl, "n1", 1, ttl)

	clk.advance(ttl)
	tbl.sweep()
	if m, _ := tbl.get("n1"); m.State != StateSuspect {
		t.Fatalf("n1 state = %s after expiry, want suspect", m.State)
	}

	// Asymmetric partition: heartbeats lost, probes answered. The node
	// must survive arbitrarily many grace periods.
	for i := 0; i < 10; i++ {
		clk.advance(grace)
		if tbl.judge("n1", true, grace) {
			t.Fatal("a suspect that answers probes must not be declared dead")
		}
	}
	if m, _ := tbl.get("n1"); m.State != StateSuspect {
		t.Fatalf("n1 state = %s, want still suspect", m.State)
	}

	// The partition heals: one heartbeat restores the lease untouched.
	renewOK(t, tbl, "n1", 1, ttl)
	if m, _ := tbl.get("n1"); m.State != StateAlive {
		t.Fatalf("n1 state = %s after heartbeat, want alive", m.State)
	}

	// Real death: probes fail. Inside the grace window the node stays
	// suspect; past it, it dies.
	clk.advance(ttl)
	tbl.sweep()
	if tbl.judge("n1", false, grace) {
		t.Fatal("a failed probe inside the grace period must not kill the suspect")
	}
	clk.advance(grace)
	if !tbl.judge("n1", false, grace) {
		t.Fatal("failed probes past the grace period should declare the suspect dead")
	}
	if m, _ := tbl.get("n1"); m.State != StateDead {
		t.Fatalf("n1 state = %s, want dead", m.State)
	}
}

// A higher incarnation is a restarted process and may always rejoin; a
// lower one is a zombie and never can.
func TestIncarnationRules(t *testing.T) {
	tbl, clk := newTestTable()
	ttl := time.Second
	renewOK(t, tbl, "n1", 5, ttl)

	// Zombie with an older incarnation: refused even while the current
	// lease is alive.
	if resp, _ := tbl.renew(renewRequest{ID: "n1", Incarnation: 4, Addr: "a"}, ttl); !resp.Revoked {
		t.Fatalf("stale incarnation accepted: %+v", resp)
	}

	// Death, then rejoin with a fresh incarnation: accepted.
	clk.advance(2 * ttl)
	tbl.sweep()
	resp := renewOK(t, tbl, "n1", 6, ttl)
	if len(resp.Members) != 1 || resp.Members[0].State != StateAlive {
		t.Fatalf("rejoined member view = %+v, want one alive row", resp.Members)
	}
}

func TestLeaveHandsOffOnce(t *testing.T) {
	tbl, _ := newTestTable()
	renewOK(t, tbl, "n1", 1, time.Second)
	if !tbl.leave("n1", 1) {
		t.Fatal("leave of an alive member should report wasAlive")
	}
	if tbl.leave("n1", 1) {
		t.Fatal("second leave should be a no-op")
	}
	if resp, _ := tbl.renew(renewRequest{ID: "n1", Incarnation: 1, Addr: "a"}, time.Second); !resp.Revoked {
		t.Fatalf("renewal after leave under the same incarnation not revoked: %+v", resp)
	}
	// A stale leave must not kill a newer incarnation.
	renewOK(t, tbl, "n1", 2, time.Second)
	if tbl.leave("n1", 1) {
		t.Fatal("stale leave acted on a newer incarnation")
	}
	if m, _ := tbl.get("n1"); m.State != StateAlive {
		t.Fatalf("n1 state = %s after stale leave, want alive", m.State)
	}
}

// Gossip: every renewal response carries the full membership view.
func TestRenewalGossipsView(t *testing.T) {
	tbl, clk := newTestTable()
	ttl := time.Second
	renewOK(t, tbl, "n1", 1, ttl)
	renewOK(t, tbl, "n2", 1, ttl)
	clk.advance(2 * ttl)
	tbl.sweep() // both suspect
	if !tbl.judge("n2", false, 0) {
		t.Fatal("judge should declare n2 dead")
	}
	resp := renewOK(t, tbl, "n1", 2, ttl)
	states := map[string]string{}
	for _, m := range resp.Members {
		states[m.ID] = m.State
	}
	if states["n1"] != StateAlive || states["n2"] != StateDead {
		t.Fatalf("gossiped view = %v, want n1 alive + n2 dead", states)
	}
}
