package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// scriptedServer answers the scripted statuses in order, then 200s forever.
// A status of -1 resets the connection instead of answering.
func scriptedServer(t *testing.T, script []int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(hits.Add(1)) - 1
		if n < len(script) {
			switch code := script[n]; code {
			case -1:
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("response writer cannot hijack")
					return
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close() //rkvet:ignore dropperr deliberate mid-request reset
				return
			case http.StatusOK:
			default:
				if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
					w.Header().Set("Retry-After", "2")
				}
				http.Error(w, "scripted failure", code)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"context_size":1,"alpha":1}`)); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestClientRetryPolicy(t *testing.T) {
	cases := []struct {
		name       string
		script     []int
		maxRetries int
		wantOK     bool
		wantHits   int64
		wantSleeps int
		wantErr    string
	}{
		{name: "clean first try", script: nil, maxRetries: 3, wantOK: true, wantHits: 1, wantSleeps: 0},
		{name: "503 then ok", script: []int{503}, maxRetries: 3, wantOK: true, wantHits: 2, wantSleeps: 1},
		{name: "429 429 then ok", script: []int{429, 429}, maxRetries: 3, wantOK: true, wantHits: 3, wantSleeps: 2},
		{name: "connection reset then ok", script: []int{-1}, maxRetries: 3, wantOK: true, wantHits: 2, wantSleeps: 1},
		// The reset lands on a reused keep-alive connection, which net/http
		// replays itself for idempotent requests — so the client's own loop
		// only backs off for the 503 and the 429.
		{name: "mixed transient then ok", script: []int{503, -1, 429}, maxRetries: 3, wantOK: true, wantHits: 4, wantSleeps: 2},
		{name: "budget exhausted", script: []int{503, 503, 503}, maxRetries: 2, wantOK: false, wantHits: 3, wantSleeps: 2, wantErr: "503"},
		{name: "400 is permanent", script: []int{400}, maxRetries: 3, wantOK: false, wantHits: 1, wantSleeps: 0, wantErr: "400"},
		{name: "409 is permanent", script: []int{409}, maxRetries: 3, wantOK: false, wantHits: 1, wantSleeps: 0, wantErr: "409"},
		{name: "500 is permanent", script: []int{500}, maxRetries: 3, wantOK: false, wantHits: 1, wantSleeps: 0, wantErr: "500"},
		{name: "retries disabled", script: []int{503}, maxRetries: 0, wantOK: false, wantHits: 1, wantSleeps: 0, wantErr: "503"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, hits := scriptedServer(t, tc.script)
			c := NewClient(ts.URL)
			c.MaxRetries = tc.maxRetries
			var sleeps []time.Duration
			c.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
			c.jitter = func(d time.Duration) time.Duration { return d }
			_, err := c.Stats()
			if tc.wantOK != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.wantOK)
			}
			if err != nil && tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err %v does not mention %s", err, tc.wantErr)
			}
			if hits.Load() != tc.wantHits {
				t.Fatalf("server saw %d attempts, want %d", hits.Load(), tc.wantHits)
			}
			if len(sleeps) != tc.wantSleeps {
				t.Fatalf("client slept %d times, want %d", len(sleeps), tc.wantSleeps)
			}
			// Every backoff before a retry of a 503/429 must honour the
			// server's Retry-After: 2s hint (the hijack case sends none).
			for i, d := range sleeps {
				if i < len(tc.script) && tc.script[i] != -1 && d < 2*time.Second {
					t.Fatalf("sleep %d = %v ignored Retry-After 2s", i, d)
				}
			}
		})
	}
}

func TestClientBackoffGrowsAndCaps(t *testing.T) {
	c := NewClient("http://unused")
	c.BaseDelay = 10 * time.Millisecond
	c.MaxDelay = 80 * time.Millisecond
	c.jitter = func(d time.Duration) time.Duration { return d }
	var got []time.Duration
	c.sleep = func(d time.Duration) { got = append(got, d) }
	for attempt := 0; attempt < 6; attempt++ {
		c.backoff(attempt, 0)
	}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("attempt %d slept %v, want %v (exponential, capped)", i, got[i], want[i]*time.Millisecond)
		}
	}
	// Retry-After above the computed backoff wins.
	got = got[:0]
	c.backoff(0, time.Second)
	if got[0] != time.Second {
		t.Fatalf("Retry-After not honoured: slept %v", got[0])
	}
}

// Retrying POSTs must re-send the body each attempt, not a drained reader.
func TestClientRetriesRepostBody(t *testing.T) {
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Area", Values: []string{"Urban", "Rural"}},
	}, []string{"Denied", "Approved"})
	srv, err := New(schema, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first atomic.Bool
	mux := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.sleep = func(time.Duration) {}
	c.jitter = func(d time.Duration) time.Duration { return d }
	c.BaseDelay = time.Nanosecond
	if err := c.Observe(map[string]string{
		"Income": "3-4K", "Credit": "poor", "Area": "Urban",
	}, "Denied"); err != nil {
		t.Fatal(err)
	}
	if srv.store.Context().Len() != 1 {
		t.Fatalf("context %d after retried observe, want 1", srv.store.Context().Len())
	}
}
