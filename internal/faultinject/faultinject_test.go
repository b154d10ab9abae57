package faultinject

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// bufSyncer is an in-memory WriteSyncer for exercising the writer wrappers.
type bufSyncer struct{ bytes.Buffer }

func (b *bufSyncer) Sync() error { return nil }

func TestInjectorDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Roll(0.3) != b.Roll(0.3) {
			t.Fatalf("roll %d diverged for identical seeds", i)
		}
	}
	if a.Roll(0) || !a.Roll(1) {
		t.Fatal("degenerate probabilities must be deterministic")
	}
}

func solveSchema(t *testing.T) (*core.Context, feature.Instance, feature.Label) {
	t.Helper()
	s := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "B", Values: []string{"b0", "b1"}},
	}, []string{"neg", "pos"})
	c, err := core.NewContext(s, []feature.Labeled{
		{X: feature.Instance{0, 0}, Y: 0},
		{X: feature.Instance{1, 1}, Y: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, feature.Instance{1, 1}, 1
}

// sequentialSolve is the production solver pinned to one worker.
func sequentialSolve(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
	return core.SRKAnytimePar(ctx, c, x, y, alpha, 1)
}

func TestWrapSolveInjectsError(t *testing.T) {
	c, x, y := solveSchema(t)
	solve := WrapSolve(sequentialSolve, New(1), SolveFaults{ErrProb: 1})
	if _, _, err := solve(context.Background(), c, x, y, 1.0); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestWrapSolveLatencyHonoursContext(t *testing.T) {
	c, x, y := solveSchema(t)
	solve := WrapSolve(sequentialSolve, New(1), SolveFaults{LatencyProb: 1, Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	key, degraded, err := solve(ctx, c, x, y, 1.0)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("injected latency ignored the context (%v elapsed)", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("solver after an expired deadline must report degraded")
	}
	if !core.IsAlphaKey(c, x, y, key, 1.0) {
		t.Fatalf("degraded key %v not conformant", key)
	}
}

func TestTornWriterCutsExactly(t *testing.T) {
	var sink bufSyncer
	tw := NewTornWriter(&sink, 5)
	if n, err := tw.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("pre-cut write: n=%d err=%v", n, err)
	}
	n, err := tw.Write([]byte("defgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("straddling write must fail: %v", err)
	}
	if n != 2 {
		t.Fatalf("straddling write passed %d bytes, want 2", n)
	}
	if _, err := tw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write must fail: %v", err)
	}
	if err := tw.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut sync must fail: %v", err)
	}
	if got := sink.String(); got != "abcde" {
		t.Fatalf("sink holds %q, want the exact 5-byte prefix", got)
	}
}

func TestFaultyWriteSyncer(t *testing.T) {
	var sink bufSyncer
	f := &FaultyWriteSyncer{Inner: &sink, Inj: New(7), WriteFailProb: 1}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected write failure, got %v", err)
	}
	f.WriteFailProb = 0
	if _, err := f.Write([]byte("x")); err != nil || sink.String() != "x" {
		t.Fatalf("pass-through write broken: %q %v", sink.String(), err)
	}
	f.SyncFailProb = 1
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
}

type countingObserver struct{ n int }

func (c *countingObserver) ObserveCtx(context.Context, feature.Labeled) (int, error) {
	c.n++
	return 0, nil
}
func (c *countingObserver) AvgSuccinctness() float64 { return 0 }
func (c *countingObserver) Arrivals() int            { return c.n }

func TestFlakyObserver(t *testing.T) {
	inner := &countingObserver{}
	f := &FlakyObserver{Inner: inner, Inj: New(5), FailProb: 1}
	if _, err := f.ObserveCtx(context.Background(), feature.Labeled{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected observe failure, got %v", err)
	}
	if inner.n != 0 {
		t.Fatal("failed observe must not reach the inner monitor")
	}
	f.FailProb = 0
	if _, err := f.ObserveCtx(context.Background(), feature.Labeled{}); err != nil || f.Arrivals() != 1 {
		t.Fatalf("pass-through observe broken: arrivals=%d err=%v", f.Arrivals(), err)
	}
}
