package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

func TestParseChaosPlan(t *testing.T) {
	links, err := ParseChaosPlan("n2>router:part; router>n3:lat=50ms..100ms,err=0.2x3 ;*>n1:drop=0.5,lat=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 {
		t.Fatalf("got %d links, want 3", len(links))
	}
	if lf := links["n2>router"]; !lf.Partition {
		t.Errorf("n2>router: want partition, got %+v", lf)
	}
	lf := links["router>n3"]
	if lf.LatMin != 50*time.Millisecond || lf.LatMax != 100*time.Millisecond {
		t.Errorf("router>n3 latency: got %v..%v", lf.LatMin, lf.LatMax)
	}
	if lf.ErrRate != 0.2 || lf.ErrBurst != 3 {
		t.Errorf("router>n3 err: got rate=%v burst=%d", lf.ErrRate, lf.ErrBurst)
	}
	if lf := links["*>n1"]; lf.Drop != 0.5 || lf.LatMin != 10*time.Millisecond || lf.LatMax != 10*time.Millisecond {
		t.Errorf("*>n1: got %+v", lf)
	}

	// Round-trip through the formatter.
	again, err := ParseChaosPlan(FormatChaosPlan(links))
	if err != nil {
		t.Fatalf("re-parsing formatted plan: %v", err)
	}
	if len(again) != len(links) {
		t.Errorf("format/parse round trip lost links: %d != %d", len(again), len(links))
	}

	for _, bad := range []string{
		"nocolon", "a>:part", ">b:part", "a>b:drop=2", "a>b:lat=xyz",
		"a>b:lat=100ms..50ms", "a>b:err=1.5", "a>b:err=0.5x0", "a>b:frobnicate",
	} {
		if _, err := ParseChaosPlan(bad); err == nil {
			t.Errorf("plan %q: want error, got nil", bad)
		}
	}
}

// FuzzChaosPlan: a plan ParseChaosPlan accepts survives FormatChaosPlan
// and a second parse link for link, so the plan a process logs is the
// plan it injects.
func FuzzChaosPlan(f *testing.F) {
	f.Add("n2>router:part; router>n3:lat=50ms..100ms,err=0.2x3 ;*>n1:drop=0.5,lat=10ms")
	f.Add("a>b:err=0x3;a>c:err=0.5x1;a>d:lat=0s..0s,drop=0")
	f.Add("a > b:drop=1e-300, lat=1h2m3.000000004s")
	f.Add("a>b>c:part=yes,,;;x,y>z:")
	f.Add("a>b:drop=NaN")
	f.Fuzz(func(t *testing.T, plan string) {
		links, err := ParseChaosPlan(plan)
		if err != nil {
			return
		}
		formatted := FormatChaosPlan(links)
		again, err := ParseChaosPlan(formatted)
		if err != nil {
			t.Fatalf("%q formats as %q, which does not parse: %v", plan, formatted, err)
		}
		if !reflect.DeepEqual(links, again) {
			t.Fatalf("%q formats as %q:\n%+v\nparses back as\n%+v", plan, formatted, links, again)
		}
	})
}

// chaosOutcomes records the fate of n sequential requests through a
// fresh transport: "drop", "503", or "pass".
func chaosOutcomes(t *testing.T, seed uint64, plan string, n int) []string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	links, err := ParseChaosPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	ct := &ChaosTransport{
		Src:     "src",
		Resolve: func(string) string { return "dst" },
		Config:  ChaosConfig{Seed: seed, Links: links},
	}
	client := &http.Client{Transport: ct}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := client.Get(srv.URL)
		switch {
		case err != nil:
			out = append(out, "drop")
		case resp.StatusCode == http.StatusServiceUnavailable:
			resp.Body.Close()
			out = append(out, "503")
		default:
			resp.Body.Close()
			out = append(out, "pass")
		}
	}
	return out
}

func TestChaosTransportDeterministicReplay(t *testing.T) {
	const plan = "src>dst:drop=0.3,err=0.2x2"
	a := chaosOutcomes(t, 42, plan, 200)
	b := chaosOutcomes(t, 42, plan, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged between identical runs: %s vs %s", i, a[i], b[i])
		}
	}
	// A different seed must produce a different schedule (overwhelmingly).
	c := chaosOutcomes(t, 43, plan, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical fault schedules")
	}
	// Sanity: all three classes occur under these rates in 200 draws.
	kinds := map[string]bool{}
	for _, k := range a {
		kinds[k] = true
	}
	for _, want := range []string{"drop", "503", "pass"} {
		if !kinds[want] {
			t.Errorf("outcome %q never occurred in 200 requests", want)
		}
	}
}

func TestChaosTransportAsymmetricPartition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	links, err := ParseChaosPlan("a>b:part")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{Seed: 7, Links: links}

	// a -> b: every request dropped, surfaced as *url.Error (transport).
	aToB := &http.Client{Transport: &ChaosTransport{
		Src: "a", Resolve: func(string) string { return "b" }, Config: cfg,
	}}
	for i := 0; i < 5; i++ {
		_, err := aToB.Get(srv.URL)
		var ue *url.Error
		if !errors.As(err, &ue) {
			t.Fatalf("a>b request %d: want *url.Error, got %v", i, err)
		}
	}

	// b -> a: same config, reverse direction — untouched.
	bToA := &http.Client{Transport: &ChaosTransport{
		Src: "b", Resolve: func(string) string { return "a" }, Config: cfg,
	}}
	for i := 0; i < 5; i++ {
		resp, err := bToA.Get(srv.URL)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("b>a request %d: want 200, got %v / %v", i, resp, err)
		}
		resp.Body.Close()
	}
}

func TestChaosTransportLatencyAndDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	links, _ := ParseChaosPlan("a>b:lat=30ms..60ms")
	ct := &ChaosTransport{Src: "a", Resolve: func(string) string { return "b" }, Config: ChaosConfig{Seed: 1, Links: links}}
	client := &http.Client{Transport: ct}

	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("latency injection too fast: %v", d)
	}
	if ct.Delays() != 1 {
		t.Errorf("delays counter: got %d, want 1", ct.Delays())
	}

	// A context deadline shorter than the injected latency aborts the
	// request instead of sleeping through it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if _, err := client.Do(req); err == nil {
		t.Fatal("want deadline error through injected latency, got nil")
	}
}

func TestChaosListenerDropsConnections(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	cl := &ChaosListener{Listener: srv.Listener, Fault: LinkFault{Drop: 0.5}, Seed: 9}
	srv.Listener = cl
	srv.Start()
	defer srv.Close()

	// Disable keep-alives so every request is one connection (one draw).
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	var ok, failed int
	for i := 0; i < 40; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			failed++
			continue
		}
		resp.Body.Close()
		ok++
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a mix of served and dropped connections, got ok=%d failed=%d (dropped=%d)",
			ok, failed, cl.Dropped())
	}
	if cl.Dropped() == 0 {
		t.Error("listener dropped counter never moved")
	}
}

func TestFaultFSInjectsAndHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(vfs.OS{})

	f, err := ffs.OpenFile(filepath.Join(dir, "x.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}

	// Arm an fsync fault on .log files only.
	ffs.Fail("sync", ".log", ErrNoSpace)
	if err := f.Sync(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("armed sync: got %v, want ENOSPC", err)
	}
	if ffs.Injected() == 0 {
		t.Error("injected counter never moved")
	}
	// Writes are unaffected; other paths are unaffected.
	if _, err := f.Write([]byte("more")); err != nil {
		t.Fatalf("write under sync-only fault: %v", err)
	}
	g, err := ffs.OpenFile(filepath.Join(dir, "y.db"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf(".db sync under .log-only fault: %v", err)
	}
	g.Close()

	// Heal: the same handle works again (fault checked per call).
	ffs.Clear()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}

	// Write faults hit immediately, then heal.
	ffs.Fail("write", "", io.ErrShortWrite)
	if _, err := f.Write([]byte("z")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("armed write: got %v", err)
	}
	ffs.Clear()
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}

	// Contents reflect only the successful writes.
	data, err := ffs.ReadFile(filepath.Join(dir, "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); !strings.HasPrefix(got, "okmore") {
		t.Errorf("file contents: %q", got)
	}
}
