package main

// The layer-stack phase of a serving run: the workload's own batches,
// closed-loop from one caller, through each layer. Every row runs the
// same batches from a fresh engine and includes the work of the rows
// beneath it, so a row's ns/event minus the row beneath is what that
// layer adds. The top row, the routed path, gives the untraced run its
// rate metric.

import (
	"fmt"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
)

// stackEvents is roughly how many events each stack row processes.
const stackEvents = 1 << 17

// stackRow is one layer of the stack: step sends batch i through it.
type stackRow struct {
	name string
	step func(i int) error
	got  []bitmap.Bitmap // the row's predictions (the eval row's are the reference)
	ns   []int64         // time spent on each batch
}

func runStack(r *run, spec servingSpec, scheme core.Scheme, streams []*stream) error {
	m := coreMachine()
	src := &stream{k: streams[0].k, offset: streams[0].offset}
	nb := max(1, stackEvents/spec.perReq)
	batches := make([][]trace.Event, nb)
	apis := make([][]serve.EventRequest, nb)
	for i := range batches {
		var scratch []serve.EventRequest
		apis[i] = append([]serve.EventRequest(nil), src.batch(spec.perReq, &scratch)...)
		for j := 0; j < spec.perReq; j++ {
			batches[i] = append(batches[i], src.event(src.sent+j))
		}
		src.sent += spec.perReq
	}
	var rows []*stackRow
	addRow := func(name string, step func(row *stackRow, i int) error) {
		row := &stackRow{name: name}
		row.step = func(i int) error { return step(row, i) }
		rows = append(rows, row)
	}

	// 1. The kernel: eval.Engine.Step.
	e := eval.NewEngine(scheme, m)
	addRow("eval", func(row *stackRow, i int) error {
		for _, ev := range batches[i] {
			row.got = append(row.got, e.Step(ev))
		}
		return nil
	})

	// 2. COHWIRE1: client encode, server decode, kernel, reply encode,
	// client reply decode. The rows run one at a time, so the wire and
	// session rows share their buffers.
	var encNS, decNS, repNS int64
	var body, reply []byte
	var decoded []trace.Event
	var preds []bitmap.Bitmap
	we := eval.NewEngine(scheme, m)
	addRow("wire", func(row *stackRow, i int) error {
		t0 := time.Now()
		body = serve.AppendWireEvents(body[:0], apis[i])
		t1 := time.Now()
		var err error
		if decoded, err = serve.DecodeWireBatchInto(body, m.Nodes, decoded[:0]); err != nil {
			return err
		}
		t2 := time.Now()
		preds = preds[:0]
		for _, ev := range decoded {
			preds = append(preds, we.Step(ev))
		}
		reply = serve.AppendWireReply(reply[:0], preds)
		t3 := time.Now()
		n := len(row.got)
		if row.got, err = serve.DecodeWireReplyInto(reply, row.got); err != nil {
			return err
		}
		repNS += int64(time.Since(t3))
		encNS += int64(t1.Sub(t0))
		decNS += int64(t2.Sub(t1))
		if len(row.got)-n != len(decoded) {
			return fmt.Errorf("reply carries %d predictions for %d events", len(row.got)-n, len(decoded))
		}
		return nil
	})

	// 3. Session.PostInto: shard fan-out and micro-batch coalescing, at
	// the workload's shard count and the server's default batch and flush.
	sess, err := serve.NewSession("stack", serve.SessionConfig{
		Scheme: scheme, Machine: m, Shards: spec.shards,
		BatchSize: serve.DefaultShardBatch, Flush: serve.DefaultFlushMicros * time.Microsecond,
	}, nil)
	if err != nil {
		return err
	}
	var postNS int64
	addRow("session", func(row *stackRow, i int) error {
		body = serve.AppendWireEvents(body[:0], apis[i])
		var err error
		if decoded, err = serve.DecodeWireBatchInto(body, m.Nodes, decoded[:0]); err != nil {
			return err
		}
		preds = append(preds[:0], make([]bitmap.Bitmap, len(decoded))...)
		t := time.Now()
		err = sess.PostInto(decoded, preds)
		postNS += int64(time.Since(t))
		if err != nil {
			return err
		}
		reply = serve.AppendWireReply(reply[:0], preds)
		row.got, err = serve.DecodeWireReplyInto(reply, row.got)
		return err
	})

	// 4. Server.Handler over loopback, and 5. the same through a
	// cluster.Router, each a fresh deployment with one session.
	var systems []*system
	defer func() {
		for _, sys := range systems {
			sys.close()
		}
	}()
	for _, layer := range []struct {
		name     string
		backends int
	}{{"http", 0}, {"cluster", max(1, spec.backends)}} {
		one := spec
		one.sessions, one.warmPosts, one.backends, one.migrateEvery = 1, 0, layer.backends, 0
		sys, err := startSystem(r, one, nil)
		if err != nil {
			_ = sess.Close() // the start-up error is the one to report
			return err
		}
		systems = append(systems, sys)
		l := sys.lanes[0]
		name := layer.name
		addRow(name, func(row *stackRow, i int) error {
			id := fmt.Sprintf("stack-%s-%d", name, i)
			r.attempted.Add(1)
			ps, err := l.cl.PostEventsKeyedID(sys.ids[0], id, id, apis[i])
			if err != nil {
				r.failed.Add(1)
				return err
			}
			for _, p := range ps {
				row.got = append(row.got, bitmap.Bitmap(p))
			}
			return nil
		})
	}

	// Every batch goes through every layer before the next batch, so the
	// rows share the host's good and bad moments.
	err = func() error {
		for i := range batches {
			for _, row := range rows {
				sp := r.tr.begin("stack."+row.name, "", -1)
				start := time.Now()
				err := row.step(i)
				row.ns = append(row.ns, int64(time.Since(start)))
				r.tr.end(sp)
				if err != nil {
					return fmt.Errorf("stack %s: %w", row.name, err)
				}
			}
		}
		return nil
	}()
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	want := rows[0].got
	for _, row := range rows[1:] {
		checkPredictions(r, row.name, row.got, want)
	}

	events := nb * spec.perReq
	// A row's ns/event is its median batch time over the batch size: a
	// burst of CPU steal moves a few batches, not the median.
	perEvent := make([]float64, len(rows))
	for k, row := range rows {
		sortNS(row.ns)
		perEvent[k] = float64(quantileNS(row.ns, 0.5)) / float64(spec.perReq)
		r.set("stack."+row.name+".ns_per_event", perEvent[k])
		over := perEvent[k]
		if k > 0 {
			over -= perEvent[k-1]
		}
		logf("stack %-8s %10.1f ns/event  +%10.1f over the layer beneath  (%d batches of %d)",
			row.name, perEvent[k], over, nb, spec.perReq)
	}
	checkStackOrder(r, rows, perEvent)
	r.set("serve.wire.encode_ns_per_event", float64(encNS)/float64(events))
	r.set("serve.wire.decode_ns_per_event", float64(decNS)/float64(events))
	r.set("serve.wire.reply_decode_ns_per_event", float64(repNS)/float64(events))
	post := float64(postNS) / float64(events)
	r.set("serve.session.post_ns_per_event", post)
	r.set("serve.session.overhead_ns_per_event", post-perEvent[0])
	perReq := func(k int) float64 { return perEvent[k] * float64(spec.perReq) / 1e3 }
	r.set("serve.http.rtt_us_per_req", perReq(3))
	r.set("serve.http.overhead_us_per_req", perReq(3)-perReq(2))
	r.set("cluster.hop_us_per_req", perReq(4)-perReq(3))
	// The routed path's rate from one caller: one scheme per session, so
	// its scheme-events are its events.
	r.set("sweep_seps", 1e9/perEvent[4])
	return nil
}

// checkPredictions compares a row's predictions with the eval row's.
func checkPredictions(r *run, layer string, got, want []bitmap.Bitmap) {
	if len(got) != len(want) {
		r.wrong("stack %s: %d predictions, want %d", layer, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			r.wrong("stack %s: prediction %d is %v, eval.Engine.Step gave %v", layer, i, got[i], want[i])
			return
		}
	}
}

// checkStackOrder records a finding for every row that costs less per
// event than the row beneath it: each row does all the work of the rows
// beneath, so a cheaper row means the stack did not measure what it says.
func checkStackOrder(r *run, rows []*stackRow, perEvent []float64) {
	for k := 1; k < len(rows); k++ {
		if perEvent[k] < perEvent[k-1] {
			r.wrong("stack %s costs %.1f ns/event, less than %s beneath it (%.1f)",
				rows[k].name, perEvent[k], rows[k-1].name, perEvent[k-1])
		}
	}
}
