package main

// The open-loop load generator. It differs from internal/traffic.Run in
// the two ways README.md records: every request is timed from when it
// was due (so a stall also charges the requests queued behind it), and
// requests travel over at most nproc kept-alive connections instead of
// one new goroutine and one new TCP connection per post.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cohpredict/internal/client"
	"cohpredict/internal/serve"
)

// lane is one connection of the generator: a client whose transport
// holds exactly one kept-alive connection. Each session is pinned to one
// lane, so a session's requests are sent one at a time and in order.
type lane struct {
	cl      *client.Client
	tr      *http.Transport
	scratch []serve.EventRequest
}

// newLane builds a lane whose dials are counted into dials.
func newLane(baseURL string, seed int64, dials *atomic.Int64) *lane {
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	hc := &http.Client{
		Timeout:   client.DefaultTimeout,
		Transport: tr,
		// The client follows redirects itself, under the same key.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	return &lane{
		cl: client.New(client.Options{BaseURL: baseURL, Seed: seed, HTTP: hc, Binary: true}),
		tr: tr,
	}
}

// gen drives one system's sessions open-loop.
type gen struct {
	r       *run
	lanes   []*lane
	ids     []string  // session id per stream
	streams []*stream // session streams, index-aligned with ids
	perReq  int       // events per request
	nextSes int       // round-robin cursor over sessions, advanced per phase
	rng     *rand.Rand
}

// sample is one completed (or failed) request of a phase.
type sample struct {
	latNS  int64 // due → response
	svcNS  int64 // send → response
	lateNS int64 // how late the generator woke for a request it waited for
	failed bool
}

// phase is the outcome of one fixed-rate open-loop step.
type phase struct {
	scheduled int
	samples   []sample
	stopped   bool  // ended early: the latency limit was already missed
	lastWait  int64 // the last-due request's wait to be sent, in ns
	durationS float64
}

func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the successful requests' latencies, sorted.
func (p *phase) latencies() []int64 {
	out := make([]int64, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.failed {
			out = append(out, s.latNS)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lateP99 is how late the generator woke, at p99, for the phase's
// requests it was waiting to send.
func (p *phase) lateP99() int64 {
	late := make([]int64, 0, len(p.samples))
	for _, s := range p.samples {
		late = append(late, s.lateNS)
	}
	sortNS(late)
	return quantileNS(late, 0.99)
}

// checkGen records a finding when the generator itself makes a run's
// latencies untrustworthy: it woke more than lateLimit late at p99 for
// requests it was waiting to send, or its lanes dialed more connections
// than there are lanes (at most nproc; a second dial means a lane lost
// its kept-alive connection).
func checkGen(r *run, lateP99, lateLimit time.Duration, dials int64, lanes int) {
	if lateP99 > lateLimit {
		r.wrong("the generator woke %.2fms late at p99, above its limit of %v", float64(lateP99)/1e6, lateLimit)
	}
	if dials > int64(lanes) || lanes > runtime.NumCPU() {
		r.wrong("the generator dialed %d connections over %d lanes on %d CPUs", dials, lanes, runtime.NumCPU())
	}
}

// quantileNS is the nearest-rank q-quantile of a sorted sample (0 if empty).
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// work is one scheduled request.
type work struct {
	due  time.Duration // offset from the phase start
	sess int
}

// run sends n requests at the offered rate (events/s) as a Poisson
// process, assigning sessions round-robin. With limit > 0 the phase
// stops as soon as more than 1% of its requests missed the limit, since
// its p99 can then no longer meet it.
func (g *gen) run(rateEPS float64, n int, limit time.Duration) *phase {
	reqRate := rateEPS / float64(g.perReq)
	perLane := make([][]work, len(g.lanes))
	var at float64
	for i := 0; i < n; i++ {
		at += g.rng.ExpFloat64() / reqRate
		s := g.nextSes % len(g.streams)
		g.nextSes++
		l := s % len(g.lanes)
		perLane[l] = append(perLane[l], work{due: time.Duration(at * 1e9), sess: s})
	}
	lastDue := time.Duration(at * 1e9)

	p := &phase{scheduled: n}
	var (
		stop   atomic.Bool
		misses atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	maxMiss := int64(n / 100)
	start := time.Now()
	for li := range g.lanes {
		wg.Add(1)
		go func(l *lane, ws []work) {
			defer wg.Done()
			local := make([]sample, 0, len(ws))
			for _, w := range ws {
				if stop.Load() {
					break
				}
				var late int64
				if d := time.Until(start.Add(w.due)); d > 0 {
					time.Sleep(d)
					late = int64(time.Since(start) - w.due)
				}
				s := g.post(l, w.sess, start.Add(w.due))
				s.lateNS = late
				if w.due == lastDue {
					mu.Lock()
					p.lastWait = s.latNS - s.svcNS
					mu.Unlock()
				}
				local = append(local, s)
				if limit > 0 && (s.failed || s.latNS > int64(limit)) && misses.Add(1) > maxMiss {
					stop.Store(true)
				}
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}(g.lanes[li], perLane[li])
	}
	wg.Wait()
	p.durationS = time.Since(start).Seconds()
	p.stopped = len(p.samples) < n
	return p
}

// post sends the session's next batch and keeps the served predictions
// for the oracle. A failed post breaks the session: whether the server
// trained on the batch is unknown, so its later requests are not sent.
func (g *gen) post(l *lane, si int, due time.Time) sample {
	st := g.streams[si]
	g.r.attempted.Add(1)
	if st.broken {
		g.r.failed.Add(1)
		return sample{failed: true}
	}
	seq := g.r.nextReq.Add(1)
	reqID := fmt.Sprintf("pb%d-%d", g.r.seed, seq)
	evs := st.batch(g.perReq, &l.scratch)
	sent := time.Now()
	preds, err := l.cl.PostEventsKeyedID(g.ids[si], reqID, reqID, evs)
	done := time.Now()
	s := sample{latNS: int64(done.Sub(due)), svcNS: int64(done.Sub(sent))}
	if tr := g.r.tr; tr.on {
		root := tr.record("request", reqID, -1, int64(due.Sub(tr.t0)), int64(done.Sub(tr.t0)))
		tr.record("queue", reqID, root, int64(due.Sub(tr.t0)), int64(sent.Sub(tr.t0)))
		tr.record("post", reqID, root, int64(sent.Sub(tr.t0)), int64(done.Sub(tr.t0)))
	}
	if err == nil && len(preds) != len(evs) {
		err = fmt.Errorf("%d predictions for %d events", len(preds), len(evs))
	}
	if err != nil {
		logf("post %s to session %s failed: %v", reqID, g.ids[si], err)
		st.broken = true
		g.r.failed.Add(1)
		s.failed = true
		return s
	}
	for _, p := range preds {
		if p > math.MaxUint16 {
			// Not a 16-node bitmap: keep a value the oracle cannot match.
			p = math.MaxUint16
		}
		st.preds = append(st.preds, uint16(p))
	}
	st.sent += len(evs)
	return s
}
