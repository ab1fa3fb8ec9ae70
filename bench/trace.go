package main

import (
	"context"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its id; Parent is the span that caused this one.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Node   string    `json:"node,omitempty"` // server that recorded it
	Job    string    `json:"job,omitempty"`
	Method string    `json:"method,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int       `json:"bytes,omitempty"` // response body, handler spans
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer records spans from the benchmark's own seams — it wraps calls
// into the layers and never reaches inside them. Spans stay in memory
// until the run ends. Every method is a no-op on a nil or switched-off
// tracer, so the untraced pass of a traced run executes the same
// composition with the hooks idle.
type tracer struct {
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	handler map[int64]int // goroutine id -> the handler span it is serving
}

func newTracer() *tracer { return &tracer{handler: make(map[int64]int)} }

type spanKey struct{}

// spanHeader carries the caller's span id across an HTTP hop.
const spanHeader = "X-Bench-Span"

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// start opens a span whose parent is the span in ctx.
func (t *tracer) start(ctx context.Context, name, node string) (context.Context, int) {
	if t == nil || !t.on.Load() {
		return ctx, 0
	}
	return t.startUnder(ctx, name, node, spanFrom(ctx))
}

func (t *tracer) startUnder(ctx context.Context, name, node string, parent int) (context.Context, int) {
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Node: node, Start: now})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

func (t *tracer) finish(id int, job string, bytes int) {
	if id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = now, bytes
	if job != "" {
		s.Job = job
	}
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// clientTransport tells the server which client span a request belongs
// to. The generator's two HTTP clients use it.
func (t *tracer) clientTransport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		if id := spanFrom(r.Context()); id != 0 {
			r = r.Clone(r.Context())
			r.Header.Set(spanHeader, strconv.Itoa(id))
		}
		return base.RoundTrip(r)
	})
}

// rpcTransport is the router's outbound transport (RouterConfig.
// HTTPClient): one cluster.rpc span per member request, parented to the
// router handler span whose context the request carries.
func (t *tracer) rpcTransport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		ctx, id := t.start(r.Context(), "cluster.rpc", "router")
		if id != 0 {
			r = r.Clone(ctx)
			r.Header.Set(spanHeader, strconv.Itoa(id))
		}
		resp, err := base.RoundTrip(r)
		t.finish(id, "", 0)
		return resp, err
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return w.ResponseWriter.Write(b)
}

// middleware wraps Service.Handler() ("service.http") or Router.Handler()
// ("cluster.handle"). While the handler runs, filesystem calls made on
// its goroutine are its children.
func (t *tracer) middleware(name, node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		ctx, id := t.startUnder(r.Context(), name, node, parent)
		g := goid()
		t.mu.Lock()
		t.spans[id-1].Method = r.Method
		t.handler[g] = id
		t.mu.Unlock()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(ctx))
		t.mu.Lock()
		delete(t.handler, g)
		t.mu.Unlock()
		// The id of a GET/DELETE is in the path; a POST inherits its job
		// from the client span that caused it.
		job, _ := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
		if job == r.URL.Path {
			job = ""
		}
		t.finish(id, job, cw.n)
	})
}

// goid is the running goroutine's id, read from its stack header
// ("goroutine 123 [running]:"). The filesystem seam has no context
// parameter, so this is the only way to tell whose write it is; it costs
// about a microsecond and runs in traced passes only.
func goid() int64 {
	var buf [40]byte
	b := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// timingFS is the vfs.FS handed to service.Config.FS: vfs.write and
// vfs.sync spans around the journal's file calls.
type timingFS struct {
	vfs.OS
	t    *tracer
	node string
}

func (t *tracer) fs(node string) vfs.FS { return timingFS{t: t, node: node} }

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	vfs.File
	fs timingFS
}

// op times one file call as a child of the handler span this goroutine is
// serving, or parentless (a job runner's record; resolve finds its job).
func (f timingFile) op(name string, bytes int, call func() error) error {
	t := f.fs.t
	if !t.on.Load() {
		return call()
	}
	g := goid()
	t.mu.Lock()
	parent := t.handler[g]
	t.mu.Unlock()
	_, id := t.startUnder(context.Background(), name, f.fs.node, parent)
	err := call()
	t.finish(id, "", bytes)
	return err
}

func (f timingFile) Write(b []byte) (n int, err error) {
	err = f.op("vfs.write", len(b), func() error { n, err = f.File.Write(b); return err })
	return n, err
}

func (f timingFile) Sync() error { return f.op("vfs.sync", 0, f.File.Sync) }

// resolve completes parent links and job ids after a pass: a span
// inherits its job from its nearest ancestor that has one, and a
// parentless filesystem span becomes a child of the service.run span on
// its node that was running when it started (a runner's started or
// checkpoint record). What is left parentless is background work: finish
// records, written after finished_at, and compaction.
func resolve(spans []span) {
	runs := map[string][]*span{}
	for i := range spans {
		if s := &spans[i]; s.Name == "service.run" {
			runs[s.Node] = append(runs[s.Node], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || (s.Name != "vfs.write" && s.Name != "vfs.sync") {
			continue
		}
		for _, r := range runs[s.Node] {
			if !s.Start.Before(r.Start) && s.Start.Before(r.End) {
				s.Parent = r.ID
				break
			}
		}
	}
	for i := range spans {
		for p := spans[i].Parent; spans[i].Job == "" && p != 0; p = spans[p-1].Parent {
			spans[i].Job = spans[p-1].Job
		}
	}
}

// children indexes spans by parent id.
func children(spans []span) map[int][]*span {
	kids := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (children may overlap each other and may stick out).
func selfTime(s *span, kids []*span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	covered := time.Duration(0)
	at := s.Start
	for _, k := range kids {
		from, to := k.Start, k.End
		if from.Before(at) {
			from = at
		}
		if to.After(s.End) {
			to = s.End
		}
		if to.After(from) {
			covered += to.Sub(from)
			at = to
		}
	}
	return s.dur() - covered
}

// criticalPath splits a job's latency — the root span's interval — among
// the names of the spans in its tree: each instant goes to the deepest
// span covering it, except that once the job is queued or running, the
// queue/run subtree owns the instant even while the submit POST is still
// in flight (the job does not wait for its own ack).
func criticalPath(root *span, kids map[int][]*span) map[string]time.Duration {
	type node struct {
		s    *span
		rank int // owning priority: subtree of queue/run first, then depth
	}
	var tree []node
	var walk func(s *span, depth int, owned bool)
	walk = func(s *span, depth int, owned bool) {
		owned = owned || s.Name == "service.queue" || s.Name == "service.run"
		rank := depth
		if owned {
			rank += 1000
		}
		tree = append(tree, node{s, rank})
		for _, k := range kids[s.ID] {
			walk(k, depth+1, owned)
		}
	}
	walk(root, 0, false)

	cuts := []time.Time{root.Start, root.End}
	for _, n := range tree[1:] {
		for _, c := range []time.Time{n.s.Start, n.s.End} {
			if c.After(root.Start) && c.Before(root.End) {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	out := make(map[string]time.Duration)
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		best := tree[0]
		for _, n := range tree[1:] {
			if !n.s.Start.After(from) && !n.s.End.Before(to) && n.rank > best.rank {
				best = n
			}
		}
		out[best.s.Name] += to.Sub(from)
	}
	return out
}
