package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/service/client"
)

// jobRec is everything the generator knows about one job.
type jobRec struct {
	idx   int
	class int
	phase string
	id    string

	due   time.Time // when the job was due to be sent (== sent in a closed loop)
	sent  time.Time // POST started
	acked time.Time // POST returned: the server holds a durable record

	st    service.JobStatus // final status
	polls int
	err   error // refused, lost, timed out, or failed the result check

	slots chan struct{} // closed-loop window this job occupies, nil in an open loop
}

// latency ends at the server-reported finished_at (same host clock), so
// the poll cadence never quantises it.
func (r *jobRec) latency() time.Duration { return r.st.FinishedAt.Sub(r.due) }

// loadgen drives one deployment from two goroutines and two HTTP
// connections: the caller of the phase methods is the submitter and owns
// connection 1; reap owns connection 2 and polls outstanding jobs.
type loadgen struct {
	w    *workloadDef
	seed uint64
	sub  *client.Client
	poll *client.Client
	tr   *tracer

	jobs []*jobRec // every job attempted, in submission order; submitter only

	mu          sync.Mutex
	outstanding []*jobRec
	submitting  bool      // false once the submitter has sent its last job
	pollMs      []float64 // reaper only until reap returns
}

// oneConn is an HTTP client that keeps a single connection.
func oneConn(rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var t http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if rt != nil {
		t = rt(t)
	}
	return &http.Client{Transport: t, Timeout: 30 * time.Second}
}

func newLoadgen(w *workloadDef, seed uint64, url string, tr *tracer) *loadgen {
	g := &loadgen{w: w, seed: seed, tr: tr, sub: client.New(url), poll: client.New(url), submitting: true}
	g.sub.HTTPClient = oneConn(tr.clientTransport)
	g.poll.HTTPClient = oneConn(tr.clientTransport)
	return g
}

// submit sends the next job. due is when it should have been sent.
func (g *loadgen) submit(phase string, due time.Time, slots chan struct{}) {
	idx := len(g.jobs)
	class, spec := g.w.job(g.seed, idx)
	r := &jobRec{idx: idx, class: class, phase: phase, due: due, slots: slots}
	g.jobs = append(g.jobs, r)

	ctx, sp := g.tr.start(context.Background(), "client.submit", "")
	r.sent = time.Now()
	st, err := g.sub.Submit(ctx, spec)
	r.acked = time.Now()
	g.tr.finish(sp, st.ID, 0)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		if slots != nil {
			<-slots
		}
		return
	}
	r.id = st.ID
	g.mu.Lock()
	g.outstanding = append(g.outstanding, r)
	g.mu.Unlock()
}

// reap polls outstanding jobs round-robin, pausing 1 ms between sweeps,
// until the submitter is finished and nothing is outstanding. tail=0
// keeps the trajectory out of the answer: a poll should not cost the
// running job its lock for the time it takes to render 256 rounds.
func (g *loadgen) reap() {
	for {
		g.mu.Lock()
		sweep := append([]*jobRec(nil), g.outstanding...)
		submitting := g.submitting
		g.mu.Unlock()
		if len(sweep) == 0 && !submitting {
			return
		}
		for _, r := range sweep {
			ctx, sp := g.tr.start(context.Background(), "client.poll", "")
			t0 := time.Now()
			st, err := g.poll.JobTail(ctx, r.id, 0)
			g.pollMs = append(g.pollMs, ms(time.Since(t0)))
			g.tr.finish(sp, r.id, 0)
			r.polls++
			switch {
			case err != nil:
				r.err = fmt.Errorf("poll: %w", err)
			case st.Terminal():
				r.st = st
				r.err = g.w.classes[r.class].check(st)
			case time.Since(r.sent) > maxDuration+10*time.Second:
				r.err = fmt.Errorf("not terminal %v after submit (state %s)", time.Since(r.sent).Round(time.Second), st.State)
			default:
				continue
			}
			g.mu.Lock()
			for i, o := range g.outstanding {
				if o == r {
					g.outstanding = append(g.outstanding[:i], g.outstanding[i+1:]...)
					break
				}
			}
			g.mu.Unlock()
			if r.slots != nil {
				<-r.slots
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// drained blocks until nothing is outstanding, so that phases do not
// overlap.
func (g *loadgen) drained() {
	for {
		g.mu.Lock()
		n := len(g.outstanding)
		g.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// closedList drains exactly n jobs with `window` outstanding.
func (g *loadgen) closedList(phase string, n, window int) {
	slots := make(chan struct{}, window)
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		g.submit(phase, time.Now(), slots)
	}
	g.drained()
}

// closedFor keeps `window` jobs outstanding for d.
func (g *loadgen) closedFor(phase string, d time.Duration, window int) {
	slots := make(chan struct{}, window)
	for end := time.Now().Add(d); time.Now().Before(end); {
		slots <- struct{}{}
		g.submit(phase, time.Now(), slots)
	}
	g.drained()
}

// openLoop sends one job at each offset of sched, late or not: a job's
// clock starts when it was due.
func (g *loadgen) openLoop(phase string, sched []time.Duration) {
	t0 := time.Now()
	for _, at := range sched {
		due := t0.Add(at)
		time.Sleep(time.Until(due))
		g.submit(phase, due, nil)
	}
	g.drained()
}

// finish tells the reaper no more jobs are coming.
func (g *loadgen) finish() {
	g.mu.Lock()
	g.submitting = false
	g.mu.Unlock()
}

// schedule is the open-loop send schedule: n = rate*d sends whose gaps
// are the mean gap scaled by a seeded factor in [0.5, 1.5), renormalised
// to end exactly at d. The same seed gives the same schedule.
func schedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	r := rng.New(seed ^ 0x5EED5C4ED)
	at := make([]float64, n)
	var t float64
	for i := range at {
		at[i] = t
		t += 0.5 + r.Float64()
	}
	out := make([]time.Duration, n)
	for i := range at {
		out[i] = time.Duration(at[i] / t * float64(d))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
