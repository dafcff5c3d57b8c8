package main

import (
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/metrics"
	"cohpredict/internal/serve"
)

// verdict is the oracle's finding for one session stream.
type verdict struct {
	events     int
	mismatches int
	first      int // index of the first mismatching event, -1 if none
	conf       metrics.Confusion
}

// checkStream replays the events the session acknowledged through a
// fresh offline engine, in order, and compares every served prediction
// with eval.Engine.Step's. A migrated session must match too: migration
// moves the engine's state, so the stream continues unchanged.
func checkStream(s core.Scheme, m core.Machine, st *stream) verdict {
	e := eval.NewEngine(s, m)
	v := verdict{events: st.sent, first: -1}
	for i := 0; i < st.sent; i++ {
		if uint64(e.Step(st.event(i))) != uint64(st.preds[i]) {
			if v.first < 0 {
				v.first = i
			}
			v.mismatches++
		}
	}
	v.conf = e.Confusion()
	return v
}

// statsMatch reports whether a session's served tallies equal the
// offline engine's over the same stream.
func statsMatch(got *serve.StatsResponse, v verdict) bool {
	return got.Events == uint64(v.events) &&
		got.TP == v.conf.TP && got.FP == v.conf.FP &&
		got.TN == v.conf.TN && got.FN == v.conf.FN
}
