package client

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/serve"
)

// wireEcho is a stub predserve that speaks COHWIRE1: it decodes the
// binary batch and replies with each event's future_readers as the
// prediction, so the test can verify the round trip end to end.
func wireEcho(t *testing.T, wirePosts *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != serve.ContentTypeWire {
			t.Errorf("binary client sent Content-Type %q", r.Header.Get("Content-Type"))
		}
		wirePosts.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		evs, err := serve.DecodeWireBatch(body, 16)
		if err != nil {
			t.Errorf("decoding posted frame: %v", err)
		}
		preds := make([]bitmap.Bitmap, len(evs))
		for i, ev := range evs {
			preds[i] = ev.FutureReaders
		}
		w.Header().Set("Content-Type", serve.ContentTypeWire)
		w.Write(serve.AppendWireReply(nil, preds))
	}
}

// TestBinaryPostsWire: a Binary client encodes event posts as COHWIRE1
// frames, decodes the binary reply, and reports the wire transport in its
// stats.
func TestBinaryPostsWire(t *testing.T) {
	var wirePosts atomic.Int32
	ts := httptest.NewServer(wireEcho(t, &wirePosts))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Sleep: func(time.Duration) {}})
	preds, err := c.PostEvents("s1", []serve.EventRequest{
		{PID: 1, PC: 20, Dir: 2, Addr: 64, FutureReaders: 6},
		{PID: 0, Addr: 128, HasPrev: true, PrevPID: 3, PrevPC: 9, FutureReaders: 0x8001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0] != 6 || preds[1] != 0x8001 {
		t.Fatalf("predictions = %#v", preds)
	}
	if wirePosts.Load() != 1 {
		t.Fatalf("server saw %d wire posts, want 1", wirePosts.Load())
	}
	st := c.Stats()
	if st.Transport != "cohwire" || st.BinaryPosts != 1 || st.JSONPosts != 0 {
		t.Fatalf("stats %+v, want cohwire transport with one binary post", st)
	}
}

// TestBinaryUnsupportedIsError: a Binary client posts COHWIRE1 only. A
// server that refuses the format (415) fails the post like any other
// non-retryable status — one attempt, no JSON fallback.
func TestBinaryUnsupportedIsError(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusUnsupportedMediaType)
		w.Write([]byte(`{"error":"serve: unsupported content type"}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Sleep: func(time.Duration) {}})
	_, err := c.PostEvents("s1", []serve.EventRequest{{PID: 0, FutureReaders: 9}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("post error = %v, want a 415 APIError", err)
	}
	st := c.Stats()
	if posts.Load() != 1 || st.Transport != "cohwire" || st.BinaryPosts != 1 || st.JSONPosts != 0 || st.Retries != 0 {
		t.Fatalf("server saw %d posts, stats %+v: want one wire post, no retry, no JSON", posts.Load(), st)
	}
}

// TestJSONClientNeverSendsWire: without Binary the client is bit-for-bit
// the old JSON client.
func TestJSONClientNeverSendsWire(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("JSON client sent Content-Type %q", ct)
		}
		w.Write([]byte(`{"events":1,"predictions":[0]}`))
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Sleep: func(time.Duration) {}})
	if _, err := c.PostEvents("s1", []serve.EventRequest{{}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Transport != "json" || st.BinaryPosts != 0 || st.JSONPosts != 1 {
		t.Fatalf("stats %+v, want pure JSON", st)
	}
}

// TestBinaryRetryKeepsKey: wire-transport retries carry the same
// idempotency key, exactly like JSON ones — chaos-grade faults on the
// binary path replay, they do not downgrade.
func TestBinaryRetryKeepsKey(t *testing.T) {
	var keys []string
	var fails atomic.Int32
	fails.Store(2)
	var wirePosts atomic.Int32
	echo := wireEcho(t, &wirePosts)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if fails.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"serve: draining"}`))
			return
		}
		echo(w, r)
	}))
	defer ts.Close()

	c := New(Options{BaseURL: ts.URL, Binary: true, Seed: 1, Sleep: func(time.Duration) {}})
	preds, err := c.PostEvents("s1", []serve.EventRequest{{PID: 2, FutureReaders: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != 5 {
		t.Fatalf("predictions = %v", preds)
	}
	if len(keys) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(keys))
	}
	for _, k := range keys {
		if k == "" || k != keys[0] {
			t.Fatalf("retry changed the idempotency key: %q vs %q", k, keys[0])
		}
	}
	st := c.Stats()
	if st.Transport != "cohwire" {
		t.Fatalf("stats %+v: 503s must retry on the wire", st)
	}
}
