package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/obs"
	"cohpredict/internal/search"
	"cohpredict/internal/trace"
)

// The oracle re-evaluates swept schemes one at a time with
// eval.EvaluateAll: every latencyStride-th scheme of each sweep, whose
// evaluation times are the workload's request latencies, and
// oracleExtra more drawn with the seed. The timed sample is the same in
// every run: the schemes' costs differ several-fold, so a sample drawn
// anew each run would move the latencies by itself.
const (
	latencyStride = 8
	oracleExtra   = 8
)

// runReproduce is the paper's offline path: simulate the seven kernels,
// then sweep the quick design space under direct update (Table 8) and
// forwarded update (Table 9).
func runReproduce(r *run) error {
	var kernels []kernelRun
	var setupS []float64
	for i := 0; i < setups; i++ {
		sp := r.tr.begin("setup", "", -1)
		start := time.Now()
		ks := simulateKernels()
		setupS = append(setupS, time.Since(start).Seconds())
		r.tr.end(sp)
		if kernels != nil {
			for j := range ks {
				if len(ks[j].tr.Events) != len(kernels[j].tr.Events) || ks[j].digest != kernels[j].digest {
					r.wrong("kernel %s is not deterministic: %d events (digest %016x), earlier %d (%016x)",
						ks[j].name, len(ks[j].tr.Events), ks[j].digest, len(kernels[j].tr.Events), kernels[j].digest)
				}
			}
		}
		kernels = ks
	}
	simS := median(setupS)
	r.set("setup_s", simS)
	reportKernels(r, kernels)

	m := coreMachine()
	traces := make([]search.NamedTrace, len(kernels))
	events := 0
	for i, k := range kernels {
		traces[i] = search.NamedTrace{Name: k.name, Trace: k.tr}
		events += len(k.tr.Events)
	}
	workers := runtime.GOMAXPROCS(0)
	reg := obs.New()
	var sweepS float64
	var schemeEvents int
	rng := rand.New(rand.NewSource(r.seed))
	type sampled struct {
		tag   string
		s     core.Scheme
		want  []search.Stats
		idx   int
		timed bool
	}
	var checks []sampled
	for _, mode := range []struct {
		tag  string
		mode core.UpdateMode
	}{{"r1", core.Direct}, {"r2", core.Forwarded}} {
		schemes := search.QuickSpace(mode.mode).Schemes(m)
		sp := r.tr.begin("sweep."+mode.mode.String(), "", -1)
		start := time.Now()
		stats, err := search.EvaluateSchemesObserved(schemes, m, traces, workers, reg)
		d := time.Since(start).Seconds()
		r.tr.end(sp)
		r.attempted.Add(1)
		if err != nil {
			r.failed.Add(1)
			return fmt.Errorf("sweep under %v update: %w", mode.mode, err)
		}
		sweepS += d
		schemeEvents += len(schemes) * events
		logf("sweep %-9v: %d schemes x %d events in %.2fs", mode.mode, len(schemes), events, d)
		for i := 0; i < len(schemes); i += latencyStride {
			checks = append(checks, sampled{mode.tag, schemes[i], stats, i, true})
		}
		for _, i := range rng.Perm(len(schemes))[:min(oracleExtra, len(schemes))] {
			checks = append(checks, sampled{mode.tag, schemes[i], stats, i, false})
		}
	}
	r.set("sweep_seps", float64(schemeEvents)/(simS+sweepS))
	r.set("capacity_eps", float64(events)/(simS+sweepS))
	r.set("search.sweep_s", sweepS)
	r.set("search.scheme_events", float64(schemeEvents))

	// The oracle: each sampled scheme evaluated alone must reproduce the
	// sweep's per-kernel tallies exactly.
	evalAll := func(traced bool) map[string][]int64 {
		r.tr.on = traced
		lat := map[string][]int64{}
		var applyNS int64
		for _, c := range checks {
			if traced && !c.timed {
				continue
			}
			sp := r.tr.begin("evaluate."+c.tag, "", -1)
			start := time.Now()
			res, _ := eval.EvaluateAll(c.s, m, tracesOf(traces))
			d := int64(time.Since(start))
			r.tr.end(sp)
			applyNS += d
			if c.timed {
				lat[c.tag] = append(lat[c.tag], d)
			}
			if traced {
				continue
			}
			r.attempted.Add(1)
			for b, got := range res {
				if want := c.want[c.idx].PerBench[b]; got.Confusion != want {
					r.failed.Add(1)
					r.wrong("scheme %s on %s: eval.Evaluate %+v, sweep %+v", c.s.FullString(), traces[b].Name, got.Confusion, want)
					break
				}
			}
		}
		if !traced {
			r.set("eval.apply_ns_per_event", float64(applyNS)/float64(len(checks)*events))
		}
		return lat
	}
	traced := r.tr.on
	// The sweeps leave hundreds of megabytes of predictor tables behind;
	// collect them now rather than inside the timed evaluations.
	runtime.GC()
	lat := evalAll(false)
	for _, tag := range []string{"r1", "r2"} {
		sortNS(lat[tag])
		r.set("lat_p50_ms."+tag, float64(quantileNS(lat[tag], 0.5))/1e6)
		r.set("lat_p99_ms."+tag, float64(quantileNS(lat[tag], 0.99))/1e6)
	}
	if traced {
		again := evalAll(true)
		all := func(m map[string][]int64) []int64 {
			out := append(append([]int64(nil), m["r1"]...), m["r2"]...)
			sortNS(out)
			return out
		}
		b, t := quantileNS(all(lat), 0.5), quantileNS(all(again), 0.5)
		r.set("gen.trace_overhead_pct", 100*float64(t-b)/float64(b))
		scrapeSweep(r, reg, sweepS, workers)
		snapshotEngines(r, traces)
	}
	return nil
}

func tracesOf(nts []search.NamedTrace) []*trace.Trace {
	out := make([]*trace.Trace, len(nts))
	for i, nt := range nts {
		out[i] = nt.Trace
	}
	return out
}

// scrapeSweep reads the search layer's counters from the sweep registry.
func scrapeSweep(r *run, reg *obs.Registry, sweepS float64, workers int) {
	snap := reg.Snapshot()
	r.set("search.cells", float64(snap.Counters["sweep_cells_total"]))
	r.set("search.hist_entries", snap.Gauges["sweep_hist_entries"])
	r.set("search.task_p99_ms", snap.Histograms["sweep_task_seconds"].Quantile(0.99)*1e3)
	var busy int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sweep_worker_") && strings.HasSuffix(name, "_busy_ns") {
			busy += v
		}
	}
	r.set("search.worker_busy_ratio", float64(busy)/(float64(workers)*sweepS*1e9))
}

// snapshotEngines times the COHSNAP1 codec on an engine running the
// served scheme, trained on every kernel (the reproduce path has no live
// sessions to fetch snapshots from).
func snapshotEngines(r *run, nts []search.NamedTrace) {
	s, err := core.ParseScheme(servedScheme)
	if err != nil {
		r.wrong("parsing %s: %v", servedScheme, err)
		return
	}
	e := eval.NewEngine(s, coreMachine())
	for _, nt := range nts {
		e.Run(nt.Trace)
	}
	snap, err := e.Snapshot()
	if err != nil {
		r.wrong("engine snapshot: %v", err)
		return
	}
	const reps = 5
	var encNS, decNS int64
	var data []byte
	for k := 0; k < reps; k++ {
		t := time.Now()
		data = eval.EncodeSnapshot(snap)
		encNS += int64(time.Since(t))
		t = time.Now()
		if _, err := eval.DecodeSnapshot(data); err != nil {
			r.wrong("engine snapshot does not decode: %v", err)
			return
		}
		decNS += int64(time.Since(t))
	}
	r.set("eval.snapshot_bytes", float64(len(data)))
	r.set("eval.snapshot_encode_us", float64(encNS)/reps/1e3)
	r.set("eval.snapshot_decode_us", float64(decNS)/reps/1e3)
}
