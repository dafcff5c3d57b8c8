package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	"cohpredict/internal/cluster"
	"cohpredict/internal/core"
	"cohpredict/internal/obs"
	"cohpredict/internal/serve"
)

// servingSpec is one serving workload. The rates and the latency limit
// are frozen here (BENCHMARK.json has no room for them); README.md says
// how they were chosen.
type servingSpec struct {
	name     string
	scheme   string
	kernels  []string // session i replays kernels[i%len]
	sessions int
	shards   int // set explicitly: the server default depends on GOMAXPROCS
	perReq   int // events per post
	backends int // 0: post to one serve.Server; n: to a cluster.Router over n servers
	// migrateEvery, when non-zero, runs one live migration per interval
	// during every load phase, round-robin over the sessions.
	migrateEvery time.Duration
	r1, r2       float64       // fixed offered rates, events/s
	limit        time.Duration // p99 latency limit for capacity
	ladderLo     float64       // lowest rate of the capacity ladder, events/s
	ladderSteps  int           // ladder rates: ladderLo * ladderRatio^k, k < ladderSteps
	ladderStart  int           // the rung the capacity search starts from
	warmPosts    int           // closed-loop posts per session during set-up
}

// ladderRatio spaces the capacity ladder's rates 4% apart.
const ladderRatio = 1.04

// minPhaseRequests is the smallest phase: p99 then has ten samples above it.
const minPhaseRequests = 1000

// genLateShare bounds how late the generator may wake for a request it
// was waiting to send: at p99, by at most the workload's latency limit
// over genLateShare. A request is timed from when it was due, so a late
// wake-up is charged to it; within a tenth of the limit the generator
// alone cannot decide whether a rate meets the limit.
const genLateShare = 10

// fixedBlocks is how many blocks each fixed-rate phase runs as.
const fixedBlocks = 3

// setups is how many times a run builds its system; setup_s is the median.
const setups = 5

// servedScheme is the predictor every serving session runs.
const servedScheme = "union(pid+dir+add10)2[forwarded]"

var routedSmall = servingSpec{
	name:         "routed-small",
	scheme:       servedScheme,
	kernels:      []string{"em3d", "ocean", "gauss", "mp3d"},
	sessions:     32,
	shards:       1,
	perReq:       64,
	backends:     2,
	migrateEvery: 250 * time.Millisecond,
	r1:           15_000,
	r2:           25_000,
	limit:        100 * time.Millisecond,
	ladderLo:     30_000,
	ladderSteps:  48,
	ladderStart:  16,
	warmPosts:    8,
}

// system is one in-process deployment: servers (and a router) behind
// real loopback HTTP, the sessions, and the generator's lanes.
type system struct {
	spec      servingSpec
	servers   []*serve.Server
	regs      []*obs.Registry // each backend's metrics registry
	urls      []string        // backend base URLs
	router    *cluster.Router
	routerReg *obs.Registry
	routeURL  string
	front     string // where the lanes and the control client send requests
	https     []*http.Server
	serveWG   sync.WaitGroup
	ctlHTTP   *http.Client
	ctl       *client.Client
	lanes     []*lane
	dials     *atomic.Int64 // dials by the lanes' transports
	ids       []string
	home      []string // routed: each session's current backend
	created   time.Time
}

// listen serves h on a loopback port and returns its base URL.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startSystem brings the deployment up, creates the sessions and warms
// them: everything setup_s times.
func startSystem(r *run, spec servingSpec, streams []*stream) (*system, error) {
	s := &system{spec: spec, dials: new(atomic.Int64)}
	for i := 0; i < max(spec.backends, 1); i++ {
		reg := obs.New()
		srv := serve.NewServer(serve.Options{Registry: reg})
		u, err := s.listen(srv.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers, s.regs, s.urls = append(s.servers, srv), append(s.regs, reg), append(s.urls, u)
	}
	s.front = s.urls[0]
	if spec.backends > 0 {
		s.routerReg = obs.New()
		rt, err := cluster.New(cluster.Options{Backends: s.urls, Registry: s.routerReg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = rt
		if s.routeURL, err = s.listen(rt.Handler()); err != nil {
			s.close()
			return nil, err
		}
		s.front = s.routeURL
	}
	s.ctlHTTP = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	s.ctl = client.New(client.Options{BaseURL: s.front, Seed: r.seed, HTTP: s.ctlHTTP})
	sp := r.tr.begin("session_create", "", -1)
	for i := 0; i < spec.sessions; i++ {
		resp, err := s.ctl.CreateSession(serve.CreateSessionRequest{Scheme: spec.scheme, Shards: spec.shards})
		if err != nil {
			r.tr.end(sp)
			s.close()
			return nil, fmt.Errorf("creating session %d: %w", i, err)
		}
		s.ids = append(s.ids, resp.ID)
	}
	r.tr.end(sp)
	s.created = time.Now()
	nl := max(1, min(runtime.GOMAXPROCS(0), spec.sessions))
	for i := 0; i < nl; i++ {
		s.lanes = append(s.lanes, newLane(s.front, r.seed*1000+int64(i), s.dials))
	}
	if spec.backends > 0 {
		st, err := s.clusterStatus()
		if err != nil {
			s.close()
			return nil, err
		}
		where := map[string]string{}
		for _, ss := range st.Sessions {
			where[ss.ID] = ss.Backend
		}
		for _, id := range s.ids {
			s.home = append(s.home, where[id])
		}
	}
	g := s.gen(r, streams, 0)
	g.warm(spec.warmPosts)
	return s, nil
}

func (s *system) gen(r *run, streams []*stream, seed int64) *gen {
	return &gen{r: r, lanes: s.lanes, ids: s.ids, streams: streams, perReq: s.spec.perReq,
		rng: rand.New(rand.NewSource(seed))}
}

// warm posts n batches per session closed-loop, each lane in parallel.
func (g *gen) warm(n int) {
	var wg sync.WaitGroup
	for li, l := range g.lanes {
		wg.Add(1)
		go func(li int, l *lane) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				for si := li; si < len(g.streams); si += len(g.lanes) {
					g.post(l, si, time.Now())
				}
			}
		}(li, l)
	}
	wg.Wait()
}

// close stops everything the system started and waits for it.
func (s *system) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, hs := range s.https {
		_ = hs.Close() // the listener is ours; nothing to report
	}
	s.serveWG.Wait()
	for _, srv := range s.servers {
		_ = srv.Shutdown() // drains sessions; their state is no longer needed
	}
	for _, l := range s.lanes {
		l.tr.CloseIdleConnections()
	}
	if s.ctlHTTP != nil {
		s.ctlHTTP.CloseIdleConnections()
	}
}

func (s *system) getBody(url string) ([]byte, error) {
	resp, err := s.ctlHTTP.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

func (s *system) clusterStatus() (*cluster.ClusterStatus, error) {
	body, err := s.getBody(s.routeURL + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	return cluster.DecodeClusterStatus(body)
}

// migrate moves session i to the other backend through the router's
// control route and returns how long the call took.
func (s *system) migrate(i int) (time.Duration, error) {
	target := s.urls[0]
	if s.home[i] == target {
		target = s.urls[1]
	}
	body, err := cluster.EncodeMigrateRequest(&cluster.MigrateRequest{Session: s.ids[i], Target: target})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := s.ctlHTTP.Post(s.routeURL+"/v1/cluster/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	msg, _ := io.ReadAll(resp.Body) // only for the error text
	resp.Body.Close()
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("migrating %s: %d: %s", s.ids[i], resp.StatusCode, msg)
	}
	s.home[i] = target
	return d, nil
}

// migrator runs one migration per interval, round-robin over the
// sessions, until stopped.
type migrator struct {
	s       *system
	r       *run
	next    int
	durs    []time.Duration
	stop    chan struct{}
	done    chan struct{}
	running bool
}

func (m *migrator) start() {
	if m.s.spec.migrateEvery == 0 {
		return
	}
	m.stop, m.done, m.running = make(chan struct{}), make(chan struct{}), true
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.s.spec.migrateEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
			i := m.next % len(m.s.ids)
			m.next++
			m.r.attempted.Add(1)
			sp := m.r.tr.begin("migrate", m.s.ids[i], -1)
			d, err := m.s.migrate(i)
			m.r.tr.end(sp)
			if err != nil {
				logf("migration failed: %v", err)
				m.r.failed.Add(1)
				continue
			}
			m.durs = append(m.durs, d)
		}
	}()
}

func (m *migrator) halt() {
	if !m.running {
		return
	}
	close(m.stop)
	<-m.done
	m.running = false
}

// phaseRequests sizes a phase: the request count that lasts dur at the
// rate, and never fewer than minPhaseRequests.
func phaseRequests(rateEPS float64, perReq int, dur float64) int {
	return max(minPhaseRequests, int(math.Ceil(rateEPS/float64(perReq)*dur)))
}

// capacityProbes is how many ladder probes one capacity search makes.
const capacityProbes = 12

// findCapacity walks the fixed ladder as an up-down staircase: up after a
// probe that passes, down after one that fails, by four rungs until the
// walk first turns twice and by one rung after that. The capacity is the
// ladder rate at the median rung probed after the first turn: the rate
// that passes half the time. One probe can pass or fail by luck on a
// shared host (a burst of CPU steal fails a sustainable rate); the
// median of a dozen does not.
func findCapacity(spec servingSpec, load func(float64, int, time.Duration) *phase, seconds float64) (float64, []*phase) {
	rate := func(k int) float64 { return spec.ladderLo * math.Pow(ladderRatio, float64(k)) }
	probeS := 0.35 * seconds / capacityProbes
	var phases []*phase
	var rungs []float64
	k, step, turns := spec.ladderStart, 4, 0
	prev := false
	for i := 0; i < capacityProbes; i++ {
		p := load(rate(k), phaseRequests(rate(k), spec.perReq, probeS), spec.limit)
		phases = append(phases, p)
		ok := passes(p, spec.limit)
		logf("probe %2d: %.0f ev/s, %d/%d requests in %.2fs: p99 %.3fms, last wait %.3fms, pass %v",
			k, rate(k), len(p.samples), p.scheduled, p.durationS, float64(quantileNS(p.latencies(), 0.99))/1e6,
			float64(p.lastWait)/1e6, ok)
		if i > 0 && ok != prev {
			if turns++; turns == 2 {
				step = 1
			}
		}
		if turns > 0 {
			rungs = append(rungs, float64(k))
		}
		prev = ok
		if ok {
			k = min(k+step, spec.ladderSteps-1)
		} else {
			k = max(k-step, 0)
		}
	}
	if len(rungs) == 0 {
		// The walk never turned: every probe passed (or failed), so the
		// capacity is beyond the ladder's end it walked toward.
		return rate(k), phases
	}
	return rate(int(math.Floor(median(rungs)))), phases
}

// passes reports whether a phase met the capacity criteria: every
// request sent and answered, p99 within the limit, and the backlog at
// the last due instant cleared within the limit.
func passes(p *phase, limit time.Duration) bool {
	if p.stopped || p.failures() > 0 {
		return false
	}
	return quantileNS(p.latencies(), 0.99) <= int64(limit) && p.lastWait <= int64(limit)
}

func runServing(r *run, spec servingSpec) error {
	sp := r.tr.begin("input_build", "", -1)
	kernels := simulateKernels()
	reportKernels(r, kernels)
	streams, digest, err := newStreams(kernels, spec.kernels, spec.sessions, r.seed)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	logf("%s: %d sessions, input digest %016x", spec.name, spec.sessions, digest)
	scheme, err := core.ParseScheme(spec.scheme)
	if err != nil {
		return err
	}

	var sys *system
	var setupS []float64
	for i := 0; i < setups; i++ {
		for _, st := range streams {
			st.sent, st.preds, st.broken = 0, st.preds[:0], false
		}
		if sys != nil {
			sys.close()
		}
		sp := r.tr.begin("setup", "", -1)
		start := time.Now()
		sys, err = startSystem(r, spec, streams)
		setupS = append(setupS, time.Since(start).Seconds())
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	defer sys.close()
	r.set("setup_s", median(setupS))
	logf("setup: %.3fs (each: %v)", median(setupS), setupS)

	g := sys.gen(r, streams, r.seed)
	mig := &migrator{s: sys, r: r}
	load := func(rate float64, n int, limit time.Duration) *phase {
		mig.start()
		p := g.run(rate, n, limit)
		mig.halt()
		return p
	}
	if r.traced {
		// The tracing overhead: the same fixed-rate phase untraced, then
		// traced, compared by median latency.
		r.tr.on = false
		base := load(spec.r1, phaseRequests(spec.r1, spec.perReq, 0.15*r.seconds), 0)
		r.tr.on = true
		traced := load(spec.r1, phaseRequests(spec.r1, spec.perReq, 0.15*r.seconds), 0)
		b, t := quantileNS(base.latencies(), 0.5), quantileNS(traced.latencies(), 0.5)
		r.set("gen.trace_overhead_pct", 100*float64(t-b)/float64(b))
	}
	// Each fixed rate runs as fixedBlocks back-to-back blocks of at least
	// minPhaseRequests; a latency is the median of the blocks' values, so
	// one burst of CPU steal on a shared host moves one block, not the
	// metric.
	var phases []*phase
	for _, rp := range []struct {
		tag   string
		rate  float64
		share float64
	}{{"r1", spec.r1, 0.3}, {"r2", spec.r2, 0.25}} {
		var p50s, p99s []float64
		for b := 0; b < fixedBlocks; b++ {
			p := load(rp.rate, phaseRequests(rp.rate, spec.perReq, rp.share*r.seconds/fixedBlocks), 0)
			phases = append(phases, p)
			lat := p.latencies()
			p50s = append(p50s, float64(quantileNS(lat, 0.5))/1e6)
			p99s = append(p99s, float64(quantileNS(lat, 0.99))/1e6)
			logf("%s block %d: %.0f ev/s, %d requests in %.2fs: p50 %.3fms p99 %.3fms, failures %d",
				rp.tag, b, rp.rate, len(p.samples), p.durationS, p50s[b], p99s[b], p.failures())
		}
		r.set("lat_p50_ms."+rp.tag, median(p50s))
		r.set("lat_p99_ms."+rp.tag, median(p99s))
	}

	if r.traced {
		capacity, capPhases := findCapacity(spec, load, r.seconds)
		phases = append(phases, capPhases...)
		r.set("capacity_eps", capacity)
	}

	var lates []float64
	var svc []int64
	for _, p := range phases {
		lates = append(lates, float64(p.lateP99()))
		for _, s := range p.samples {
			if !s.failed {
				svc = append(svc, s.svcNS)
			}
		}
	}
	sortNS(svc)
	// Like a latency, the lateness is the median of the phases' p99s: one
	// burst of CPU steal moves one phase, not the verdict.
	lateP99 := time.Duration(median(lates))
	checkGen(r, lateP99, spec.limit/genLateShare, sys.dials.Load(), len(sys.lanes))
	r.set("gen.late_p99_ms", float64(lateP99)/1e6)
	r.set("gen.conns", float64(sys.dials.Load()))
	if len(mig.durs) > 0 {
		sortDur(mig.durs)
		r.set("cluster.migrate_ms_p50", float64(mig.durs[len(mig.durs)/2])/1e6)
		r.set("cluster.migrate_ms_max", float64(mig.durs[len(mig.durs)-1])/1e6)
	}

	if err := checkServed(r, sys, scheme, streams); err != nil {
		return err
	}
	if r.traced {
		if err := scrapeServing(r, sys, svc); err != nil {
			return err
		}
	}
	// The layer stack runs in both modes: its top row, the routed path
	// from one caller, gives the untraced run its rate metric.
	return runStack(r, spec, scheme, streams)
}

// checkServed runs the oracle: every served prediction and every
// session's tallies against the offline engine over the same stream.
func checkServed(r *run, sys *system, scheme core.Scheme, streams []*stream) error {
	m := coreMachine()
	var events int
	var checkNS int64
	for i, st := range streams {
		stats, err := sys.ctl.SessionStats(sys.ids[i])
		if err != nil {
			return fmt.Errorf("fetching stats of %s: %w", sys.ids[i], err)
		}
		sp := r.tr.begin("oracle_compare", sys.ids[i], -1)
		start := time.Now()
		v := checkStream(scheme, m, st)
		checkNS += int64(time.Since(start))
		r.tr.end(sp)
		events += v.events
		if v.mismatches > 0 {
			r.wrong("session %s: %d of %d predictions differ from eval.Engine.Step (first at event %d)",
				sys.ids[i], v.mismatches, v.events, v.first)
		}
		if !st.broken && !statsMatch(stats, v) {
			r.wrong("session %s: served tallies events=%d tp=%d fp=%d tn=%d fn=%d, offline events=%d %+v",
				sys.ids[i], stats.Events, stats.TP, stats.FP, stats.TN, stats.FN, v.events, v.conf)
		}
	}
	if events == 0 {
		return errors.New("no events were served")
	}
	r.set("eval.apply_ns_per_event", float64(checkNS)/float64(events))
	logf("oracle: %d events over %d sessions checked", events, len(streams))
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortNS(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func sortDur(xs []time.Duration) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
