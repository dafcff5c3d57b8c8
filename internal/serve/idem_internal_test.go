package serve

// White-box tests for the idempotency-cache invariants the review pinned
// down: a snapshot never bakes an incomplete entry, eviction never drops
// an in-flight entry, and a permanent shard failure keeps its entry so
// replays fail fast without re-training.

import (
	"errors"
	"fmt"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

func newTestSession(t *testing.T, shards int) *Session {
	t.Helper()
	sc, err := core.ParseScheme("last(add8)1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("t", SessionConfig{
		Scheme:  sc,
		Machine: core.Machine{Nodes: 16, LineBytes: 64},
		Shards:  shards,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestEncodeSessionExtraSkipsIncompleteEntries: only completed, successful
// idempotency entries reach a snapshot. An entry registered by a PostKeyed
// racing the quiesce (still open, or failed with ErrSnapshotting) must not
// be serialized — a restored session would answer a replay of that key
// with zero predictions and the batch would silently never train.
func TestEncodeSessionExtraSkipsIncompleteEntries(t *testing.T) {
	s := newTestSession(t, 1)
	complete := &idemEntry{done: make(chan struct{}), preds: []bitmap.Bitmap{3, 5}}
	close(complete.done)
	open := &idemEntry{done: make(chan struct{})}
	failed := &idemEntry{done: make(chan struct{}), err: errors.New("injected")}
	close(failed.done)
	s.idemMu.Lock()
	s.idem["complete"] = complete
	s.idem["open"] = open
	s.idem["failed"] = failed
	s.idemOrder = append(s.idemOrder, "complete", "open", "failed")
	s.idemMu.Unlock()

	extra, err := decodeSessionExtra(encodeSessionExtra(s.extra()), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra.idem) != 1 || extra.idem[0].key != "complete" {
		t.Fatalf("snapshot idem entries = %+v, want only the completed one", extra.idem)
	}
	if len(extra.idem[0].preds) != 2 {
		t.Fatalf("preds = %v, want the 2 recorded predictions", extra.idem[0].preds)
	}
}

// TestIdemEvictionSkipsInFlight: FIFO eviction removes the oldest
// *completed* entry, never one whose winner is still running — evicting an
// in-flight entry would let a concurrent retry of the same key win the map
// slot and train the batch twice. When every entry is in flight, the cache
// briefly exceeds the cap instead of evicting anything.
func TestIdemEvictionSkipsInFlight(t *testing.T) {
	s := newTestSession(t, 1)
	open := &idemEntry{done: make(chan struct{})}
	s.idemMu.Lock()
	s.idem["open"] = open
	s.idemOrder = append(s.idemOrder, "open")
	for i := 0; i < maxIdemKeys-1; i++ {
		k := fmt.Sprintf("k%04d", i)
		e := &idemEntry{done: make(chan struct{})}
		close(e.done)
		s.idem[k] = e
		s.idemOrder = append(s.idemOrder, k)
	}
	s.idemMu.Unlock()

	// At capacity with the in-flight entry oldest: a fresh key evicts the
	// oldest completed entry, not the open one.
	if _, err := s.PostKeyed("fresh", nil); err != nil {
		t.Fatal(err)
	}
	s.idemMu.Lock()
	_, openAlive := s.idem["open"]
	_, oldestAlive := s.idem["k0000"]
	n := len(s.idemOrder)
	s.idemMu.Unlock()
	if !openAlive {
		t.Fatal("eviction removed the in-flight entry")
	}
	if oldestAlive {
		t.Fatal("oldest completed entry survived eviction")
	}
	if n != maxIdemKeys {
		t.Fatalf("cache size %d, want %d", n, maxIdemKeys)
	}

	s2 := newTestSession(t, 1)
	s2.idemMu.Lock()
	for i := 0; i < maxIdemKeys; i++ {
		k := fmt.Sprintf("k%04d", i)
		s2.idem[k] = &idemEntry{done: make(chan struct{})}
		s2.idemOrder = append(s2.idemOrder, k)
	}
	s2.idemMu.Unlock()
	if _, err := s2.PostKeyed("fresh", nil); err != nil {
		t.Fatal(err)
	}
	s2.idemMu.Lock()
	n2 := len(s2.idemOrder)
	s2.idemMu.Unlock()
	if n2 != maxIdemKeys+1 {
		t.Fatalf("all-in-flight cache size %d, want %d (no eviction)", n2, maxIdemKeys+1)
	}
}

// TestPostKeyedShardFailureKeepsEntry: a shard worker failure is permanent,
// so PostKeyed records it in the idempotency entry instead of releasing the
// key — a replay of the key fails fast without re-enqueueing the batch to
// the shards that are still healthy.
func TestPostKeyedShardFailureKeepsEntry(t *testing.T) {
	s := newTestSession(t, 1)
	evs := []trace.Event{{PID: 1, Dir: 0, Addr: 64, FutureReaders: 2}}
	if _, err := s.PostKeyed("warm", evs); err != nil {
		t.Fatal(err)
	}

	s.shards[0].fail.Store(fmt.Errorf("%w: shard 0 worker panicked: test", ErrShardFailed))
	_, err := s.PostKeyed("poisoned", evs)
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("err = %v, want ErrShardFailed", err)
	}
	s.idemMu.Lock()
	e := s.idem["poisoned"]
	s.idemMu.Unlock()
	if e == nil || !e.completed() || !errors.Is(e.err, ErrShardFailed) {
		t.Fatalf("poisoned entry = %+v, want kept with the recorded failure", e)
	}

	trained := s.Stats().Events
	if _, err := s.PostKeyed("poisoned", evs); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("replay err = %v, want the recorded ErrShardFailed", err)
	}
	if got := s.Stats().Events; got != trained {
		t.Fatalf("replay re-trained: %d events, want %d", got, trained)
	}
}
