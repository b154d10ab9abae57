package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

func retentionServer(t *testing.T, panel, retain int) (*Server, *Client) {
	t.Helper()
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Area", Values: []string{"Urban", "Rural"}},
	}, []string{"Denied", "Approved"})
	srv, err := NewWithRetention(schema, 1.0, panel, retain)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func TestRetentionBoundsContext(t *testing.T) {
	srv, client := retentionServer(t, 0, 5)
	rows := []struct{ income, credit, area, pred string }{
		{"1-2K", "poor", "Urban", "Denied"},
		{"3-4K", "poor", "Urban", "Denied"},
		{"5-6K", "poor", "Urban", "Approved"},
		{"3-4K", "good", "Rural", "Approved"},
		{"1-2K", "good", "Urban", "Denied"},
		{"5-6K", "good", "Rural", "Approved"},
		{"3-4K", "poor", "Rural", "Denied"},
		{"5-6K", "poor", "Rural", "Approved"},
	}
	for i, r := range rows {
		if err := client.Observe(map[string]string{
			"Income": r.income, "Credit": r.credit, "Area": r.area,
		}, r.pred); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if want > 5 {
			want = 5
		}
		if got := srv.store.Context().Len(); got != want {
			t.Fatalf("after %d observes: context %d, want %d", i+1, got, want)
		}
	}
	// The physical index must not outgrow the retention bound: admission
	// precedes eviction (so a monitor failure can roll back cleanly), which
	// allows at most one transient extra slot.
	if got := srv.store.Context().NumSlots(); got > 6 {
		t.Fatalf("NumSlots = %d, want ≤ retain+1 (slots must recycle)", got)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ContextSize != 5 || stats.Retention != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	// Explaining still works against the bounded context.
	if _, err := client.Explain(map[string]string{
		"Income": "5-6K", "Credit": "poor", "Area": "Rural",
	}, "Approved", 0); err != nil {
		t.Fatal(err)
	}
	// Retention evicts oldest-first: the first observed row is gone, so the
	// live rows are exactly rows[3:].
	liveItems := srv.store.Context().LiveItems()
	if len(liveItems) != 5 {
		t.Fatalf("LiveItems = %d, want 5", len(liveItems))
	}
	if _, err := NewWithRetention(srv.schema, 1.0, 0, -1); err == nil {
		t.Fatal("negative retention accepted")
	}
}

func TestRetentionWarm(t *testing.T) {
	srv, _ := retentionServer(t, 0, 3)
	items := []feature.Labeled{
		{X: feature.Instance{0, 0, 0}, Y: 0},
		{X: feature.Instance{1, 1, 1}, Y: 1},
		{X: feature.Instance{2, 0, 1}, Y: 1},
		{X: feature.Instance{0, 1, 0}, Y: 0},
	}
	n, err := srv.Warm(items)
	if err != nil || n != 4 {
		t.Fatalf("Warm = %d, %v", n, err)
	}
	if srv.store.Context().Len() != 3 {
		t.Fatalf("context %d after warm, want 3", srv.store.Context().Len())
	}
}

// failingMonitor rejects every observation after the first `allow`.
type failingMonitor struct {
	allow    int
	arrivals int
}

func (m *failingMonitor) ObserveCtx(context.Context, feature.Labeled) (int, error) {
	if m.arrivals >= m.allow {
		return 0, errors.New("monitor: induced failure")
	}
	m.arrivals++
	return 0, nil
}
func (m *failingMonitor) AvgSuccinctness() float64 { return 0 }
func (m *failingMonitor) Arrivals() int            { return m.arrivals }

// TestObserveAtomicRollback: when the drift monitor rejects an instance the
// context add must be rolled back, so the state the client sees is as if the
// request never happened — a retry cannot duplicate the row.
func TestObserveAtomicRollback(t *testing.T) {
	srv, client := retentionServer(t, 0, 0)
	srv.monitor = &failingMonitor{allow: 2}

	row := map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}
	for i := 0; i < 2; i++ {
		if err := client.Observe(row, "Denied"); err != nil {
			t.Fatal(err)
		}
	}
	if srv.store.Context().Len() != 2 {
		t.Fatalf("context %d before failure, want 2", srv.store.Context().Len())
	}
	// Monitor now fails: the observe must 500 AND leave the context as-is.
	err := client.Observe(row, "Denied")
	if err == nil {
		t.Fatal("failing monitor not surfaced")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("want 500 error, got %v", err)
	}
	if srv.store.Context().Len() != 2 {
		t.Fatalf("context %d after failed observe, want 2 (rollback)", srv.store.Context().Len())
	}
	// A later successful path (monitor swapped out) reuses the rolled-back
	// slot rather than leaking it.
	srv.monitor = nil
	if err := client.Observe(row, "Denied"); err != nil {
		t.Fatal(err)
	}
	if srv.store.Context().Len() != 3 || srv.store.Context().NumSlots() != 3 {
		t.Fatalf("context Len=%d NumSlots=%d after retry, want 3/3", srv.store.Context().Len(), srv.store.Context().NumSlots())
	}
}

// TestServiceConcurrentHeavy hammers /observe, /explain and /stats in
// parallel — including a retention-bounded server whose observes remove rows
// — and is intended to run under -race: it proves the in-place context
// mutation keeps readers and writers serialized by the server lock.
func TestServiceConcurrentHeavy(t *testing.T) {
	for _, retain := range []int{0, 8} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			_, client := retentionServer(t, 3, retain)
			// Seed so explains have a context.
			seed := []struct{ income, credit, area, pred string }{
				{"3-4K", "poor", "Urban", "Denied"},
				{"5-6K", "good", "Rural", "Approved"},
				{"1-2K", "poor", "Urban", "Denied"},
				{"5-6K", "poor", "Urban", "Approved"},
			}
			for _, r := range seed {
				if err := client.Observe(map[string]string{
					"Income": r.income, "Credit": r.credit, "Area": r.area,
				}, r.pred); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 96)
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					switch i % 3 {
					case 0:
						errs <- client.Observe(map[string]string{
							"Income": "3-4K", "Credit": "good", "Area": "Rural",
						}, "Approved")
					case 1:
						_, err := client.Explain(map[string]string{
							"Income": "3-4K", "Credit": "poor", "Area": "Urban",
						}, "Denied", 0)
						errs <- err
					default:
						_, err := client.Stats()
						errs <- err
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
