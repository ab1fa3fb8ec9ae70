package faultinject

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// The chaos layer models gray network failures between cluster
// participants: per-link latency distributions, probabilistic drops,
// 503 error bursts, and asymmetric partitions (A reaches B while B
// cannot reach A — each direction is its own link). Every decision is
// drawn from a PRNG keyed by (seed, src, dst, seq), where seq is the
// request's ordinal on its link, so a run replays exactly for a fixed
// seed no matter how goroutines interleave across links.

// LinkFault describes the faults injected on one directed link.
type LinkFault struct {
	// Partition drops every request on this link (this direction only;
	// the reverse link is unaffected — that asymmetry is the point).
	Partition bool
	// Drop is the probability a request is dropped (a transport error,
	// as if the packets vanished).
	Drop float64
	// LatMin/LatMax inject per-request latency drawn uniformly from
	// [LatMin, LatMax]. Zero = no added latency.
	LatMin time.Duration
	LatMax time.Duration
	// ErrRate is the probability a request group is answered with a
	// fabricated 503 (the peer is up but unhealthy).
	ErrRate float64
	// ErrBurst groups consecutive requests under one error decision
	// (default 1), so injected 503s arrive in realistic bursts.
	ErrBurst int
}

func (lf LinkFault) active() bool {
	return lf.Partition || lf.Drop > 0 || lf.LatMax > 0 || lf.ErrRate > 0
}

// ChaosConfig seeds a chaos transport or listener. Links are keyed
// "src>dst"; "*" on either side is a wildcard (exact match wins, then
// "*>dst", then "src>*", then "*>*").
type ChaosConfig struct {
	Seed  uint64
	Links map[string]LinkFault
}

// ParseChaosPlan parses the -chaos-plan flag grammar:
//
//	plan  := link (';' link)*
//	link  := src '>' dst ':' spec (',' spec)*
//	spec  := "part"                 total drop, this direction only
//	       | "drop=" P              drop probability in [0,1]
//	       | "lat=" MIN ".." MAX    uniform latency (Go durations)
//	       | "lat=" D               fixed latency
//	       | "err=" P               503 probability in [0,1]
//	       | "err=" P "x" N         ... in bursts of N requests
//
// Example: "n2>router:part;router>n3:lat=50ms..100ms,err=0.2x3".
func ParseChaosPlan(plan string) (map[string]LinkFault, error) {
	links := make(map[string]LinkFault)
	for _, part := range strings.Split(plan, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, specs, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("chaos plan: link %q missing ':'", part)
		}
		src, dst, ok := strings.Cut(key, ">")
		if !ok || strings.TrimSpace(src) == "" || strings.TrimSpace(dst) == "" {
			return nil, fmt.Errorf("chaos plan: link %q wants src>dst", key)
		}
		var lf LinkFault
		for _, spec := range strings.Split(specs, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			name, val, _ := strings.Cut(spec, "=")
			switch name {
			case "part":
				lf.Partition = true
			case "drop":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || !(p >= 0 && p <= 1) { // NaN too
					return nil, fmt.Errorf("chaos plan: bad drop %q (want [0,1])", val)
				}
				lf.Drop = p
			case "lat":
				lo, hi, ranged := strings.Cut(val, "..")
				dmin, err := time.ParseDuration(lo)
				if err != nil {
					return nil, fmt.Errorf("chaos plan: bad latency %q: %v", val, err)
				}
				dmax := dmin
				if ranged {
					if dmax, err = time.ParseDuration(hi); err != nil {
						return nil, fmt.Errorf("chaos plan: bad latency %q: %v", val, err)
					}
				}
				if dmin < 0 || dmax < dmin {
					return nil, fmt.Errorf("chaos plan: latency range %q inverted", val)
				}
				lf.LatMin, lf.LatMax = dmin, dmax
			case "err":
				rate, burst, bursty := strings.Cut(val, "x")
				p, err := strconv.ParseFloat(rate, 64)
				if err != nil || !(p >= 0 && p <= 1) { // NaN too
					return nil, fmt.Errorf("chaos plan: bad err %q (want [0,1])", val)
				}
				lf.ErrRate = p
				if bursty {
					n, err := strconv.Atoi(burst)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("chaos plan: bad err burst %q", val)
					}
					lf.ErrBurst = n
				}
			default:
				return nil, fmt.Errorf("chaos plan: unknown spec %q (want part, drop, lat, err)", spec)
			}
		}
		links[strings.TrimSpace(src)+">"+strings.TrimSpace(dst)] = lf
	}
	return links, nil
}

// FormatChaosPlan renders links back into the plan grammar (stable
// order), for logging what a process is actually injecting.
func FormatChaosPlan(links map[string]LinkFault) string {
	keys := make([]string, 0, len(links))
	for k := range links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		lf := links[k]
		var specs []string
		if lf.Partition {
			specs = append(specs, "part")
		}
		if lf.Drop > 0 {
			specs = append(specs, fmt.Sprintf("drop=%g", lf.Drop))
		}
		if lf.LatMax > 0 {
			if lf.LatMax == lf.LatMin {
				specs = append(specs, fmt.Sprintf("lat=%s", lf.LatMin))
			} else {
				specs = append(specs, fmt.Sprintf("lat=%s..%s", lf.LatMin, lf.LatMax))
			}
		}
		if lf.ErrRate > 0 || lf.ErrBurst > 0 {
			s := fmt.Sprintf("err=%g", lf.ErrRate)
			if lf.ErrBurst > 0 {
				s += fmt.Sprintf("x%d", lf.ErrBurst)
			}
			specs = append(specs, s)
		}
		parts = append(parts, k+":"+strings.Join(specs, ","))
	}
	return strings.Join(parts, ";")
}

// ChaosError is the transport-level error for dropped requests.
// http.Client wraps it in *url.Error, so callers see it exactly where
// a real connection failure would surface.
type ChaosError struct {
	Src, Dst string
	Seq      uint64
}

func (e *ChaosError) Error() string {
	return fmt.Sprintf("chaos: dropped %s>%s request %d", e.Src, e.Dst, e.Seq)
}

// Timeout and Temporary make the drop look like a network timeout to
// callers that sniff net.Error.
func (e *ChaosError) Timeout() bool   { return true }
func (e *ChaosError) Temporary() bool { return true }

var _ net.Error = (*ChaosError)(nil)

// ChaosTransport injects the configured link faults in front of a real
// http.RoundTripper. Src names the local end; the destination is
// resolved from the request's host (Resolve hook, defaulting to the
// host:port itself), and the matching LinkFault — if any — is applied
// under a per-link (src,dst,seq)-keyed PRNG.
type ChaosTransport struct {
	// Base performs real requests. Defaults to http.DefaultTransport.
	Base http.RoundTripper
	// Src is this end's node id (e.g. "router", "n2", "specload").
	Src string
	// Resolve maps a request's host:port to the peer's node id. nil
	// uses the host:port verbatim — fine when the plan names hosts.
	Resolve func(host string) string
	// Config carries the seed and the link table.
	Config ChaosConfig

	mu   sync.Mutex
	seqs map[string]uint64 // per-link request ordinals

	delays atomic.Int64
}

// Delays counts requests that had latency injected.
func (t *ChaosTransport) Delays() int64 { return t.delays.Load() }

// link finds the fault spec for dst (exact, then wildcard forms).
func (t *ChaosTransport) link(dst string) (LinkFault, bool) {
	for _, key := range []string{
		t.Src + ">" + dst, "*>" + dst, t.Src + ">*", "*>*",
	} {
		if lf, ok := t.Config.Links[key]; ok {
			return lf, lf.active()
		}
	}
	return LinkFault{}, false
}

// nextSeq hands out the request's ordinal on its link.
func (t *ChaosTransport) nextSeq(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seqs == nil {
		t.seqs = make(map[string]uint64)
	}
	seq := t.seqs[key]
	t.seqs[key] = seq + 1
	return seq
}

// fnv64 hashes a link key (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// linkSeed derives the deterministic PRNG seed for one request: pure
// function of (seed, src, dst, seq), independent of wall clock and of
// interleaving with other links.
func linkSeed(seed uint64, src, dst string, seq uint64) uint64 {
	return fnv64(src+">"+dst) ^ seed ^ (seq * 0x9e3779b97f4a7c15)
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := req.URL.Host
	if t.Resolve != nil {
		if id := t.Resolve(dst); id != "" {
			dst = id
		}
	}
	lf, ok := t.link(dst)
	if !ok {
		return t.base().RoundTrip(req)
	}
	seq := t.nextSeq(t.Src + ">" + dst)
	r := rng.New(linkSeed(t.Config.Seed, t.Src, dst, seq))

	if lf.Partition || (lf.Drop > 0 && r.Float64() < lf.Drop) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &ChaosError{Src: t.Src, Dst: dst, Seq: seq}
	}

	if lf.ErrRate > 0 {
		// One decision per burst group, drawn from its own stream so
		// consecutive requests fail together.
		burst := lf.ErrBurst
		if burst < 1 {
			burst = 1
		}
		group := seq / uint64(burst)
		gr := rng.New(linkSeed(t.Config.Seed^0x5ca1ab1e, t.Src, dst, group))
		if gr.Float64() < lf.ErrRate {
			if req.Body != nil {
				req.Body.Close()
			}
			body := `{"error":"chaos: injected 503"}` + "\n"
			return &http.Response{
				Status:     "503 Service Unavailable",
				StatusCode: http.StatusServiceUnavailable,
				Proto:      req.Proto,
				ProtoMajor: req.ProtoMajor,
				ProtoMinor: req.ProtoMinor,
				Header: http.Header{
					"Content-Type": []string{"application/json"},
					"Retry-After":  []string{"1"},
				},
				Body:          io.NopCloser(strings.NewReader(body)),
				ContentLength: int64(len(body)),
				Request:       req,
			}, nil
		}
	}

	if lf.LatMax > 0 {
		d := lf.LatMin
		if lf.LatMax > lf.LatMin {
			d += time.Duration(r.Float64() * float64(lf.LatMax-lf.LatMin))
		}
		if d > 0 {
			t.delays.Add(1)
			timer := time.NewTimer(d)
			select {
			case <-req.Context().Done():
				timer.Stop()
				if req.Body != nil {
					req.Body.Close()
				}
				return nil, req.Context().Err()
			case <-timer.C:
			}
		}
	}

	return t.base().RoundTrip(req)
}

func (t *ChaosTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// ChaosListener wraps a net.Listener with deterministic inbound
// faults, the server-side half of the chaos pair. Remote peers cannot
// be told apart at accept time (ephemeral ports), so the listener
// applies one LinkFault to every inbound connection, keyed by accept
// ordinal: Partition/Drop close the connection before the HTTP layer
// sees it, latency delays the accept (connection-granular, coarser
// than the transport's per-request latency — use the transport side
// when per-request precision matters).
type ChaosListener struct {
	net.Listener
	Fault LinkFault
	Seed  uint64

	seq     atomic.Uint64
	dropped atomic.Int64
}

// Dropped counts connections the listener closed at accept.
func (l *ChaosListener) Dropped() int64 { return l.dropped.Load() }

// Accept implements net.Listener.
func (l *ChaosListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return c, err
		}
		seq := l.seq.Add(1) - 1
		r := rng.New(linkSeed(l.Seed, "*", "self", seq))
		if l.Fault.Partition || (l.Fault.Drop > 0 && r.Float64() < l.Fault.Drop) {
			l.dropped.Add(1)
			c.Close()
			continue
		}
		if l.Fault.LatMax > 0 {
			d := l.Fault.LatMin
			if l.Fault.LatMax > l.Fault.LatMin {
				d += time.Duration(r.Float64() * float64(l.Fault.LatMax-l.Fault.LatMin))
			}
			time.Sleep(d)
		}
		return c, nil
	}
}
