package main

import (
	"strings"
	"testing"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/machine"
	"cohpredict/internal/metrics"
	"cohpredict/internal/serve"
	"cohpredict/internal/traffic"
	"cohpredict/internal/workload"
)

// testStreams serves two sessions a small em3d stream, each from its own
// offset, over more than one lap of the trace.
func testStreams(t *testing.T) []*stream {
	t.Helper()
	b, err := workload.ByName("em3d", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	b.Run(m, cfg.Nodes, simSeed)
	tr := m.Finish()
	k := &kernelRun{name: "em3d", tr: tr, api: traffic.APIEvents(tr.Events)}
	return []*stream{{k: k}, {k: k, offset: len(tr.Events) / 3}}
}

// TestOracleCatchesFlippedBit serves real posts through a router and two
// backends, checks that the oracle accepts them, then flips one bit of
// one served prediction and checks that the oracle reports exactly that
// event.
func TestOracleCatchesFlippedBit(t *testing.T) {
	streams := testStreams(t)
	spec := routedSmall
	spec.sessions = len(streams)
	lap := len(streams[0].k.tr.Events)/spec.perReq + 1
	spec.warmPosts = lap
	r := &run{seed: 7, tr: newTracer(false), metrics: map[string]float64{}}
	sys, err := startSystem(r, spec, streams)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	// Move session 1 to the other backend mid-stream, then keep posting.
	if _, err := sys.migrate(1); err != nil {
		t.Fatal(err)
	}
	sys.gen(r, streams, 1).warm(lap)
	scheme, err := core.ParseScheme(spec.scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(r, sys, scheme, streams); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 || r.failed.Load() != 0 {
		t.Fatalf("faithful service reported incorrect: %v (failed %d)", r.problems, r.failed.Load())
	}

	const at = 1000
	streams[1].preds[at] ^= 1 << 5
	if err := checkServed(r, sys, scheme, streams); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "1 of") ||
		!strings.Contains(r.problems[0], "first at event 1000") {
		t.Fatalf("flipped bit not caught as one mismatch at event %d: %v", at, r.problems)
	}
}

// TestStatsMismatchCaught checks the tally comparison: served tallies
// that differ from the offline engine's by one event or one decision are
// reported.
func TestStatsMismatchCaught(t *testing.T) {
	v := verdict{events: 10, conf: metrics.Confusion{TP: 1, FP: 2, TN: 3, FN: 4}}
	served := serve.StatsResponse{Events: 10, TP: 1, FP: 2, TN: 3, FN: 4}
	if !statsMatch(&served, v) {
		t.Fatal("equal tallies reported as different")
	}
	for _, tamper := range []func(*serve.StatsResponse){
		func(s *serve.StatsResponse) { s.Events++ },
		func(s *serve.StatsResponse) { s.TP++ },
		func(s *serve.StatsResponse) { s.FN++ },
	} {
		bad := served
		tamper(&bad)
		if statsMatch(&bad, v) {
			t.Fatalf("tallies %+v reported equal to %+v", bad, v.conf)
		}
	}
}

// TestValidityChecksFailTheRun checks that a late generator, an extra
// dial and an inverted layer stack each make the run incorrect.
func TestValidityChecksFailTheRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(*run)
		want  int
	}{
		{"valid", func(r *run) { checkGen(r, 10*time.Millisecond, 10*time.Millisecond, 1, 1) }, 0},
		{"late", func(r *run) { checkGen(r, 10*time.Millisecond+time.Microsecond, 10*time.Millisecond, 1, 1) }, 1},
		{"redial", func(r *run) { checkGen(r, 0, 10*time.Millisecond, 2, 1) }, 1},
		{"ordered stack", func(r *run) {
			checkStackOrder(r, []*stackRow{{name: "eval"}, {name: "wire"}, {name: "session"}}, []float64{100, 250, 18000})
		}, 0},
		{"inverted stack", func(r *run) {
			checkStackOrder(r, []*stackRow{{name: "http"}, {name: "cluster"}}, []float64{21500, 21400})
		}, 1},
	} {
		r := &run{tr: newTracer(false), metrics: map[string]float64{}}
		c.check(r)
		if len(r.problems) != c.want {
			t.Errorf("%s: %d findings %v, want %d", c.name, len(r.problems), r.problems, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(true)
	root := tr.record("request", "r1", -1, 0, 100)
	tr.record("queue", "r1", root, 0, 30)
	tr.record("post", "r1", root, 20, 90) // overlaps queue: the union counts once
	for _, s := range tr.summarize() {
		if s.Name == "request" && s.SelfS*1e9 != 10 {
			t.Fatalf("request self time %v ns, want 10", s.SelfS*1e9)
		}
	}
}
