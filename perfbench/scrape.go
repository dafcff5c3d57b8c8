package main

// Per-layer counters the program already exports: each backend's and the
// router's obs registry (the source of their /metrics), each session's
// /v1/sessions/{id}/stats, the router's /v1/cluster, and the client's
// Stats.

import (
	"bytes"
	"fmt"
	"time"

	"cohpredict/internal/eval"
	"cohpredict/internal/flight"
	"cohpredict/internal/obs"
)

// mergeHist adds b's observations into a (same bucket bounds).
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(a.Buckets) == 0 {
		a.Buckets = append([]obs.BucketCount(nil), b.Buckets...)
	} else {
		for i := range a.Buckets {
			if i < len(b.Buckets) {
				a.Buckets[i].Count += b.Buckets[i].Count
			}
		}
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// wireHist suffixes the flight recorder's events-route, COHWIRE1 family.
const wireHist = "_" + flight.RouteEvents + "_" + flight.TransportWire

// scrapeServing fills the serve, client, cluster and snapshot metrics
// from what the system exports. svc holds the client-side service times
// (send to response) of every load request, sorted.
func scrapeServing(r *run, sys *system, svc []int64) error {
	hists := map[string]obs.HistogramSnapshot{}
	names := []string{"serve_batch_wait_seconds", "serve_queue_wait_seconds",
		"serve_shard_exec_seconds", "serve_request_seconds"}
	var backpressure float64
	var batchSize obs.HistogramSnapshot
	for _, reg := range sys.regs {
		snap := reg.Snapshot()
		for _, n := range names {
			hists[n] = mergeHist(hists[n], snap.Histograms[n+wireHist])
		}
		batchSize = mergeHist(batchSize, snap.Histograms["serve_batch_size"])
		backpressure += float64(snap.Counters["serve_backpressure_total"])
	}
	ms := func(n string, q float64) float64 { return hists[n].Quantile(q) * 1e3 }
	r.set("serve.batch_wait_p50_ms", ms("serve_batch_wait_seconds", 0.5))
	r.set("serve.batch_wait_p99_ms", ms("serve_batch_wait_seconds", 0.99))
	r.set("serve.queue_wait_p50_ms", ms("serve_queue_wait_seconds", 0.5))
	r.set("serve.shard_exec_p50_ms", ms("serve_shard_exec_seconds", 0.5))
	r.set("serve.request_p50_ms", ms("serve_request_seconds", 0.5))
	r.set("serve.request_p99_ms", ms("serve_request_seconds", 0.99))
	r.set("serve.client_gap_p50_ms", float64(quantileNS(svc, 0.5))/1e6-ms("serve_request_seconds", 0.5))
	if batchSize.Count > 0 {
		r.set("serve.batch_size_mean", batchSize.Sum/float64(batchSize.Count))
	}
	r.set("serve.backpressure", backpressure)

	var busyNS int64
	shards := 0
	for _, id := range sys.ids {
		st, err := sys.ctl.SessionStats(id)
		if err != nil {
			return fmt.Errorf("fetching stats of %s: %w", id, err)
		}
		for _, sh := range st.Shards {
			busyNS += sh.BusyNS
			shards++
		}
	}
	r.set("serve.shard_busy_ratio", float64(busyNS)/(float64(shards)*float64(time.Since(sys.created))))

	var retries, replays, redirects int64
	for _, l := range sys.lanes {
		st := l.cl.Stats()
		retries += st.Retries
		replays += st.Replays
		redirects += st.Redirects
	}
	r.set("client.retries", float64(retries))
	r.set("client.replays", float64(replays))
	r.set("client.redirects", float64(redirects))

	if sys.router != nil {
		st, err := sys.clusterStatus()
		if err != nil {
			return err
		}
		r.set("cluster.parked", float64(st.Parked))
		r.set("cluster.migrations", float64(st.Migrations))
		r.set("cluster.migration_aborts", float64(st.MigrationAborts))
		r.set("cluster.proxy_errors", float64(sys.routerReg.Snapshot().Counters["cluster_proxy_errors_total"]))
	}
	return snapshotCodec(r, sys)
}

// snapshotCodec fetches live sessions' COHSNAP1 snapshots (the bytes a
// migration moves) and times the eval codec on them.
func snapshotCodec(r *run, sys *system) error {
	const sample, reps = 4, 5
	var total, n int
	var encNS, decNS int64
	for _, id := range sys.ids[:min(sample, len(sys.ids))] {
		data, err := sys.ctl.Snapshot(id)
		if err != nil {
			return fmt.Errorf("fetching snapshot of %s: %w", id, err)
		}
		for k := 0; k < reps; k++ {
			sp := r.tr.begin("snapshot_decode", id, -1)
			t := time.Now()
			snap, err := eval.DecodeSnapshot(data)
			decNS += int64(time.Since(t))
			r.tr.end(sp)
			if err != nil {
				r.wrong("snapshot of %s does not decode: %v", id, err)
				return nil
			}
			sp = r.tr.begin("snapshot_encode", id, -1)
			t = time.Now()
			again := eval.EncodeSnapshot(snap)
			encNS += int64(time.Since(t))
			r.tr.end(sp)
			if !bytes.Equal(again, data) {
				r.wrong("snapshot of %s does not re-encode to the served bytes", id)
			}
			n++
		}
		total += len(data)
	}
	r.set("eval.snapshot_bytes", float64(total)/float64(min(sample, len(sys.ids))))
	r.set("eval.snapshot_encode_us", float64(encNS)/float64(n)/1e3)
	r.set("eval.snapshot_decode_us", float64(decNS)/float64(n)/1e3)
	return nil
}
