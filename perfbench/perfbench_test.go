package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		at     float64
		beyond int
	}{
		{n: 1000, p: 99, value: 990, at: 99, beyond: 10},   // exactly 10 beyond: p99 stands
		{n: 999, p: 99, value: 989, at: 98.99, beyond: 10}, // 9 beyond p99: lowered
		{n: 2000, p: 99, value: 1980, at: 99, beyond: 20},
		{n: 255, p: 99, value: 245, at: 96.08, beyond: 10},
		{n: 100, p: 50, value: 50, at: 50, beyond: 50},
		{n: 15, p: 50, value: 5, at: 33.33, beyond: 10},
		{n: 5, p: 99, value: 1, at: 20, beyond: 4}, // too few: the minimum
	} {
		q, err := percentile(seq(tc.n), tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q.value-tc.value) > 1e-9 || math.Abs(q.at-tc.at) > 0.01 || q.n != tc.n {
			t.Errorf("n=%d p%g: got value %v at p%v n=%d, want %v at p%v", tc.n, tc.p, q.value, q.at, q.n, tc.value, tc.at)
		}
		if beyond := tc.n - int(q.value); beyond != tc.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", tc.n, tc.p, beyond, tc.beyond)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

func TestSLOCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{op: op{kind: explainOp}, status: http.StatusOK, lat: 1 * ms},                       // met
		{op: op{kind: explainOp}, status: http.StatusConflict, lat: 2 * ms},                 // no-key verdict, met
		{op: op{kind: explainOp}, status: http.StatusOK, lat: 6 * ms},                       // too slow
		{op: op{kind: explainOp}, status: http.StatusServiceUnavailable, lat: 1 * ms},       // fast but refused
		{op: op{kind: explainOp}, err: errors.New("connection reset"), lat: 1 * ms},         // transport error
		{op: op{kind: explainOp}, status: http.StatusOK, lat: 1 * ms, err: errors.New("x")}, // failed verification
		{op: op{kind: observeOp}, status: http.StatusOK, lat: 9 * ms},                       // not an explain
	}
	share, n := sloShare(samples, sloLimit)
	if n != 6 || math.Abs(share-2.0/6) > 1e-12 {
		t.Fatalf("slo share %v over %d, want 2/6 over 6", share, n)
	}
}

func TestWindowedMedians(t *testing.T) {
	var samples []sample
	// Three one-second windows of 100 explains at 1ms, 2ms and 3ms, plus a
	// partial fourth window that must be left out.
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			d := time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond
			samples = append(samples, sample{op: op{kind: explainOp, due: d}, status: http.StatusOK,
				lat: time.Duration(w+1) * time.Millisecond, end: d})
		}
	}
	q, wins, err := windowedPercentile(byWindow(samples, 3500*time.Millisecond), 99)
	if err != nil {
		t.Fatal(err)
	}
	if wins != 3 || math.Abs(q.value-2) > 1e-9 || q.n != 300 || q.at >= 99 {
		t.Errorf("windowed p99 = %v over %d windows (n=%d, at p%v), want 2ms over 3 windows, lowered percentile", q.value, wins, q.n, q.at)
	}
	if rate, wins := windowedRate(samples, 3500*time.Millisecond); wins != 3 || math.Abs(rate-100) > 1e-9 {
		t.Errorf("windowed rate = %v over %d windows, want 100/s over 3", rate, wins)
	}
	// Server CPU at the start and the end of each window: 5, 10 and 1 ms
	// over 100 explains, and no reading at the end of the fourth window.
	cpu := []float64{0, 0.005, 0.015, 0.016}
	if cost, wins := windowedCost(samples, cpu, 4*time.Second); wins != 3 || math.Abs(cost-50) > 1e-9 {
		t.Errorf("windowed cost = %vus over %d windows, want 50us over 3", cost, wins)
	}
	// The generator spent 2.5, 5 and 2 ms in the same windows: ratios 2, 2
	// and 0.5.
	if rel, wins := windowedRatio(cpu, []float64{1, 1.0025, 1.0075, 1.0095}); wins != 3 || math.Abs(rel-2) > 1e-9 {
		t.Errorf("windowed ratio = %v over %d windows, want 2 over 3", rel, wins)
	}
}

// testInputs builds a small context and reference on the adult schema.
func testInputs(t *testing.T) (*labeller, *inputs, *reference) {
	t.Helper()
	lab, err := newLabeller()
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(lab, workload{contextRows: 3000}, 7, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(in.schema, in.context)
	if err != nil {
		t.Fatal(err)
	}
	return lab, in, ref
}

func TestVerifierRejectsTamperedKey(t *testing.T) {
	_, in, ref := testInputs(t)
	inst := func(id int32) feature.Labeled { return in.hot[id] }
	var honest []sample
	bodies := map[uint64][]byte{}
	for id := int32(0); id < 8; id++ {
		a, err := ref.answer(inst(id))
		if err != nil {
			t.Fatal(err)
		}
		if a.status != http.StatusOK {
			t.Fatalf("instance %d: reference status %d; forest labels must always admit a key", id, a.status)
		}
		honest = append(honest, sample{op: op{kind: explainOp, id: id}, status: a.status, hash: a.hash})
		bodies[a.hash] = a.body
	}
	p := &phase{name: "honest", samples: honest, bodies: bodies}
	if _, bad, err := verifyAgainst(ref, inst, 2, p); err != nil || bad != 0 {
		t.Fatalf("honest answers: %d rejected, err %v", bad, err)
	}

	// Drop the last feature from instance 3's key: the rule and the
	// feature list no longer match the reference.
	a, err := ref.answer(inst(3))
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(a.body, &resp); err != nil {
		t.Fatal(err)
	}
	feats := resp["features"].([]any)
	resp["features"] = feats[:len(feats)-1]
	tampered, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	tampered = append(tampered, '\n')
	bad := &phase{name: "tampered", bodies: map[uint64][]byte{hashBytes(tampered): tampered}, samples: []sample{
		{op: op{kind: explainOp, id: 3}, status: http.StatusOK, hash: hashBytes(tampered)},
		{op: op{kind: explainOp, id: 4}, status: http.StatusConflict}, // a no-key verdict the reference does not give
	}}
	if _, n, err := verifyAgainst(ref, inst, 2, bad); err != nil || n != 2 {
		t.Fatalf("tampered answers: %d rejected, err %v; want both rejected", n, err)
	}
	for _, s := range bad.samples {
		if !s.failed() {
			t.Errorf("instance %d not marked failed", s.id)
		} else {
			t.Logf("rejected: %v", s.err)
		}
	}
}

func TestCheckLogRejectsLostAcknowledgedObserve(t *testing.T) {
	_, in, _ := testInputs(t)
	path := filepath.Join(t.TempDir(), "observations.wal")
	wal, err := persist.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var acked []sample
	for id := int32(0); id < 6; id++ {
		acked = append(acked, sample{op: op{kind: observeOp, id: id}, status: http.StatusOK})
		if id == 4 {
			continue // acknowledged but never logged
		}
		if err := wal.Append(uint64(len(acked)), in.observe[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkLog(path, acked[:4], in.observe); err == nil {
		// ids 0..3 were all logged, but ids 5 is logged and never sent
		// within acked[:4]: a phantom row must be refused too.
		t.Error("a logged row that was never sent passed")
	}
	rows, err := checkLog(path, append(acked[:4:4], acked[5]), in.observe)
	if err != nil || len(rows) != 5 {
		t.Fatalf("every acknowledged observe logged: %d rows, err %v", len(rows), err)
	}
	if _, err := checkLog(path, acked, in.observe); err == nil {
		t.Fatal("a lost acknowledged observe passed")
	} else {
		t.Logf("rejected: %v", err)
	}
	failed := append([]sample(nil), acked...)
	failed[4].status = http.StatusServiceUnavailable // refused, so not acknowledged
	if _, err := checkLog(path, failed, in.observe); err != nil {
		t.Fatalf("an unacknowledged observe need not be logged: %v", err)
	}
}

func TestReconcileCatchesHitsBeyondRequests(t *testing.T) {
	p := &phase{name: "p", samples: []sample{
		{op: op{kind: explainOp}, status: http.StatusOK, cache: "miss"},
		{op: op{kind: explainOp}, status: http.StatusOK, cache: "hit"},
	}}
	if err := reconcile(p, cacheStats{Hits: 5}, cacheStats{Hits: 6, Misses: 1}); err != nil {
		t.Fatalf("matching counters: %v", err)
	}
	if err := reconcile(p, cacheStats{}, cacheStats{Hits: 3, Misses: 1}); err == nil {
		t.Fatal("more /stats hits than answered explains passed")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, tables have %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || math.Abs(m.Bound-d.bound) > 1e-12 {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly, untraced against a freshly built
// cceserver and traced in process, and requires every answer verified and
// every metric reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cceserver and boots it nine times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cceserver")
	build := exec.Command("go", "build", "-o", bin, "github.com/xai-db/relativekeys/cmd/cceserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cceserver: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{w: w, seed: 3, seconds: 2, trace: traced, bin: bin, work: t.TempDir(), nproc: 2}
				var out, log bytes.Buffer
				rep := &report{cfg: cfg, out: &out, log: &log}
				run := runServing
				want := endToEnd
				if traced {
					run, want = runTraced, perLayer
				}
				if err := run(context.Background(), cfg, rep); err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				attempted, failed := rep.account()
				if attempted == 0 || failed != 0 {
					t.Fatalf("attempted %d, failed %d\n%s%s", attempted, failed, out.String(), log.String())
				}
				for _, m := range want {
					if _, ok := rep.metrics[m.name]; !ok {
						t.Errorf("metric %s not reported", m.name)
					}
				}
				if len(rep.metrics) != len(want) {
					t.Errorf("%d metrics reported, want exactly %d", len(rep.metrics), len(want))
				}
			})
		}
	}
}
