package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/machine"
	"cohpredict/internal/serve"
	"cohpredict/internal/trace"
	"cohpredict/internal/traffic"
	"cohpredict/internal/workload"
)

// simSeed is the scheduler seed of every kernel simulation: the paper
// reproduction's own default (experiments.DefaultConfig). The kernels are
// fixed inputs, so their event counts are exact and repeat across runs;
// the workload seed varies what is built from them.
const simSeed = 1

// kernelRun is one simulated benchmark kernel.
type kernelRun struct {
	name     string
	tr       *trace.Trace
	api      []serve.EventRequest // tr.Events in the API's form
	accesses uint64               // loads + stores the machine simulated
	simS     float64
	digest   uint64
}

// simulateKernels runs every paper kernel through the machine simulator
// at default scale, in the paper's order.
func simulateKernels() []kernelRun {
	cfg := machine.DefaultConfig()
	var out []kernelRun
	for _, b := range workload.All(workload.ScaleDefault) {
		start := time.Now()
		m := machine.New(cfg)
		b.Run(m, cfg.Nodes, simSeed)
		tr := m.Finish()
		st := m.Stats()
		out = append(out, kernelRun{
			name:     b.Name(),
			tr:       tr,
			accesses: st.TotalLoads + st.TotalStores,
			simS:     time.Since(start).Seconds(),
			digest:   digestEvents(tr.Events),
		})
	}
	return out
}

// digestEvents is an FNV-64a digest of an event sequence, so that a change
// in the generated inputs shows up as a changed digest in the log.
func digestEvents(evs []trace.Event) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range evs {
		e := &evs[i]
		put(uint64(e.PID))
		put(e.PC)
		put(uint64(e.Dir))
		put(e.Addr)
		put(uint64(e.InvReaders))
		put(uint64(e.PrevPID))
		put(e.PrevPC)
		put(uint64(e.FutureReaders))
		if e.HasPrev {
			put(1)
		}
	}
	return h.Sum64()
}

// reportKernels publishes the machine layer's metrics and logs the input
// digests.
func reportKernels(r *run, ks []kernelRun) {
	var events, accesses int
	var simS float64
	for _, k := range ks {
		r.set("machine.sim_s."+k.name, k.simS)
		events += len(k.tr.Events)
		accesses += int(k.accesses)
		simS += k.simS
		logf("kernel %-8s events=%-7d digest=%016x sim=%.3fs", k.name, len(k.tr.Events), k.digest, k.simS)
	}
	r.set("machine.events", float64(events))
	r.set("machine.accesses_per_s", float64(accesses)/simS)
}

func kernelByName(ks []kernelRun, name string) (*kernelRun, error) {
	for i := range ks {
		if ks[i].name == name {
			if ks[i].api == nil {
				ks[i].api = traffic.APIEvents(ks[i].tr.Events)
			}
			return &ks[i], nil
		}
	}
	return nil, fmt.Errorf("no kernel %q", name)
}

// stream is one session's event stream: its kernel's trace, rotated to a
// seeded offset and repeated end to end as often as the run needs. The
// predictions the service returned are kept per event for the oracle.
type stream struct {
	k      *kernelRun
	offset int
	sent   int      // events posted and acknowledged so far
	preds  []uint16 // served prediction per posted event (16-node bitmaps)
	broken bool     // a post failed: the stream's server state is unknown
}

// batch returns events [s.sent, s.sent+n) of the stream in the API's
// form, copying into *scratch only when the range wraps around the trace.
func (s *stream) batch(n int, scratch *[]serve.EventRequest) []serve.EventRequest {
	l := len(s.k.api)
	lo := (s.offset + s.sent) % l
	if lo+n <= l {
		return s.k.api[lo : lo+n]
	}
	buf := (*scratch)[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, s.k.api[(lo+i)%l])
	}
	*scratch = buf
	return buf
}

// event returns the stream's i-th event.
func (s *stream) event(i int) trace.Event {
	evs := s.k.tr.Events
	return evs[(s.offset+i)%len(evs)]
}

// newStreams rotates the named kernels over n sessions: session i replays
// kernels[i % len] from a seeded offset.
func newStreams(ks []kernelRun, names []string, n int, seed int64) ([]*stream, uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	out := make([]*stream, n)
	for i := range out {
		k, err := kernelByName(ks, names[i%len(names)])
		if err != nil {
			return nil, 0, err
		}
		out[i] = &stream{k: k, offset: rng.Intn(len(k.tr.Events))}
		fmt.Fprintf(h, "%s/%016x/%d;", k.name, k.digest, out[i].offset)
	}
	return out, h.Sum64(), nil
}

// coreMachine is the paper's 16-node machine as the predictors see it.
func coreMachine() core.Machine {
	cfg := machine.DefaultConfig()
	return core.Machine{Nodes: cfg.Nodes, LineBytes: cfg.LineBytes}
}
