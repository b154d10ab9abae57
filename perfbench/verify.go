package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
	"github.com/xai-db/relativekeys/internal/service"
)

// reference answers explains with core.SRK, the eager reference engine, on
// the benchmark's own copy of the context the server should be explaining
// against.
type reference struct {
	schema *feature.Schema
	ctx    *core.Context
}

func newReference(schema *feature.Schema, rows []feature.Labeled) (*reference, error) {
	c, err := core.NewContext(schema, rows)
	if err != nil {
		return nil, err
	}
	return &reference{schema: schema, ctx: c}, nil
}

// answer is what cceserver must send for one explain: the status and, for
// 200, the exact body.
type answer struct {
	status  int
	body    []byte
	hash    uint64
	keySize int
}

func (r *reference) answer(li feature.Labeled) (answer, error) {
	key, err := core.SRK(r.ctx, li.X, li.Y, alpha)
	if errors.Is(err, core.ErrNoKey) {
		return answer{status: http.StatusConflict}, nil
	}
	if err != nil {
		return answer{}, err
	}
	resp := service.ExplainResponse{
		Rule:      key.RenderRule(r.schema, li.X, li.Y),
		Precision: core.Precision(r.ctx, li.X, li.Y, key),
		Coverage:  core.Coverage(r.ctx, li.X, li.Y, key),
		Context:   r.ctx.Len(),
	}
	for _, a := range key {
		resp.Features = append(resp.Features, r.schema.Attrs[a].Name)
	}
	// Encoded exactly as the server writes it: json.Encoder, trailing newline.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return answer{}, err
	}
	return answer{status: http.StatusOK, body: buf.Bytes(), hash: hashBytes(buf.Bytes()), keySize: len(key)}, nil
}

// answers computes the reference answer of every id over workers
// goroutines.
func (r *reference) answers(ids []int32, inst func(int32) feature.Labeled, workers int) (map[int32]answer, error) {
	out := make([]answer, len(ids))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += workers {
				a, err := r.answer(inst(ids[i]))
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = a
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	m := make(map[int32]answer, len(ids))
	for i, id := range ids {
		m[id] = out[i]
	}
	return m, nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //rkvet:ignore dropperr hash.Hash writes never fail
	return h.Sum64()
}

// verifyAgainst compares every answered explain of the phases with the
// reference: the status (a 409 no-key verdict must match the reference's)
// and, for 200, the body byte for byte. A mismatch marks the sample failed.
// It returns the reference answer of each distinct explained instance.
func verifyAgainst(ref *reference, inst func(int32) feature.Labeled, workers int, phases ...*phase) (map[int32]answer, int, error) {
	seen := map[int32]bool{}
	var ids []int32
	for _, p := range phases {
		for i := range p.samples {
			s := &p.samples[i]
			if s.kind == explainOp && s.err == nil && !seen[s.id] {
				seen[s.id] = true
				ids = append(ids, s.id)
			}
		}
	}
	want, err := ref.answers(ids, inst, workers)
	if err != nil {
		return nil, 0, err
	}
	bad := 0
	for _, p := range phases {
		for i := range p.samples {
			s := &p.samples[i]
			if s.kind != explainOp || s.failed() {
				continue
			}
			if merr := compareAnswer(want[s.id], s, p.bodies[s.hash]); merr != nil {
				s.err = fmt.Errorf("%s explain of instance %d: %w", p.name, s.id, merr)
				bad++
			}
		}
	}
	return want, bad, nil
}

// compareAnswer checks one response against the reference answer.
func compareAnswer(want answer, s *sample, got []byte) error {
	if s.status != want.status {
		return fmt.Errorf("status %d, reference %d", s.status, want.status)
	}
	if want.status != http.StatusOK || s.hash == want.hash {
		return nil
	}
	return fmt.Errorf("body differs from the reference: %s", describeDiff(got, want.body))
}

// describeDiff names the first field in which two explain bodies differ.
func describeDiff(got, want []byte) string {
	var g, w service.ExplainResponse
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Sprintf("unparseable body %q: %v", got, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Sprintf("unparseable reference %q: %v", want, err)
	}
	fields := []struct {
		name      string
		got, want any
	}{
		{"features", g.Features, w.Features},
		{"rule", g.Rule, w.Rule},
		{"precision", g.Precision, w.Precision},
		{"coverage", g.Coverage, w.Coverage},
		{"context_size", g.Context, w.Context},
		{"degraded", g.Degraded, w.Degraded},
	}
	for _, f := range fields {
		if gs, ws := fmt.Sprint(f.got), fmt.Sprint(f.want); gs != ws {
			return fmt.Sprintf("%s %s, reference %s", f.name, gs, ws)
		}
	}
	return fmt.Sprintf("encoding: %q vs reference %q", got, want)
}

// checkWellFormed checks explains answered while writes move the context,
// which no single reference can fix: the body parses, names features of
// the schema, renders the rule of exactly those features for the
// requested instance and label, meets α, and reports the retained context
// size. A failure marks the sample failed.
func checkWellFormed(p *phase, schema *feature.Schema, inst func(int32) feature.Labeled, contextSize int) int {
	bad := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.kind != explainOp || s.failed() || s.status != http.StatusOK {
			continue
		}
		if err := wellFormed(p.bodies[s.hash], schema, inst(s.id), contextSize); err != nil {
			s.err = fmt.Errorf("%s explain of instance %d: %w", p.name, s.id, err)
			bad++
		}
	}
	return bad
}

func wellFormed(body []byte, schema *feature.Schema, li feature.Labeled, contextSize int) error {
	var r service.ExplainResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("unparseable body %q: %w", body, err)
	}
	key := make(core.Key, 0, len(r.Features))
	for _, name := range r.Features {
		a := schema.AttrIndex(name)
		if a < 0 {
			return fmt.Errorf("unknown feature %q", name)
		}
		key = append(key, a)
	}
	if rule := key.RenderRule(schema, li.X, li.Y); r.Rule != rule {
		return fmt.Errorf("rule %q, want %q for features %v", r.Rule, rule, r.Features)
	}
	if r.Precision < alpha {
		return fmt.Errorf("precision %v below α=%v", r.Precision, alpha)
	}
	if r.Context != contextSize || r.Degraded {
		return fmt.Errorf("context_size %d degraded %v, want %d and not degraded", r.Context, r.Degraded, contextSize)
	}
	return nil
}

// checkLog replays the observation log and checks acknowledged ⇔ logged:
// every observe answered 200 is in the log, every logged row was sent, and
// sequence numbers rise. It returns the logged rows in sequence order.
func checkLog(walPath string, observes []sample, rows []feature.Labeled) ([]feature.Labeled, error) {
	byKey := make(map[string]int32, len(observes))
	for i := range observes {
		id := observes[i].id
		byKey[instanceKey(rows[id].X)] = id
	}
	logged := map[int32]bool{}
	var order []feature.Labeled
	var last uint64
	n, torn, err := persist.ReplayWALFile(walPath, func(seq uint64, li feature.Labeled) error {
		id, ok := byKey[instanceKey(li.X)]
		switch {
		case !ok:
			return fmt.Errorf("logged row at seq %d was never sent", seq)
		case rows[id].Y != li.Y:
			return fmt.Errorf("logged row at seq %d carries label %d, sent %d", seq, li.Y, rows[id].Y)
		case logged[id]:
			return fmt.Errorf("row of observe %d logged twice (seq %d)", id, seq)
		case seq <= last:
			return fmt.Errorf("seq %d after %d", seq, last)
		}
		last = seq
		logged[id] = true
		order = append(order, li)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if torn {
		return nil, fmt.Errorf("log torn after %d records on a quiet server", n)
	}
	var lost []string
	for i := range observes {
		if s := &observes[i]; !s.failed() && !logged[s.id] {
			lost = append(lost, fmt.Sprint(s.id))
		}
	}
	if len(lost) > 0 {
		return nil, fmt.Errorf("%d acknowledged observes missing from the log (ids %s)", len(lost), strings.Join(lost, ","))
	}
	return order, nil
}

// quietSample re-explains ids one at a time on a server no longer taking
// writes and compares every answer, byte for byte, with the reference on
// the server's final context.
func quietSample(t *target, ref *reference, inst func(int32) feature.Labeled, ids []int32, workers int) (*phase, map[int32]answer, error) {
	c := &conn{addr: t.addr}
	p := &phase{name: "verify", bodies: map[uint64][]byte{}}
	start := time.Now()
	for _, id := range ids {
		o := op{kind: explainOp, id: id}
		s, b := t.send(c, o, t.bodyOf(o))
		p.samples = append(p.samples, s)
		recordBody(p.bodies, s, b)
	}
	p.wall = time.Since(start)
	if err := c.close(); err != nil {
		return nil, nil, err
	}
	want, _, err := verifyAgainst(ref, inst, workers, p)
	return p, want, err
}

// cacheStats are the cache counters of /stats.
type cacheStats struct {
	Hits      int64 `json:"cache_hits"`
	Misses    int64 `json:"cache_misses"`
	Coalesced int64 `json:"cache_coalesced"`
	Bypassed  int64 `json:"cache_bypassed"`
}

func readCacheStats(ctx context.Context, base string) (cacheStats, error) {
	var s cacheStats
	err := getJSON(ctx, opsClient, base+"/stats", &s)
	return s, err
}

// reconcile checks the X-RK-Cache headers the phase received against the
// server's /stats cache counters over the phase, with the answered explains
// as the base: every answered explain carries exactly one header, and each
// header count equals its counter's delta.
func reconcile(p *phase, before, after cacheStats) error {
	var got cacheStats
	answered := int64(0)
	for i := range p.samples {
		s := &p.samples[i]
		if s.kind != explainOp || s.failed() {
			continue
		}
		answered++
		switch s.cache {
		case "hit":
			got.Hits++
		case "miss":
			got.Misses++
		case "coalesced":
			got.Coalesced++
		case "bypass":
			got.Bypassed++
		default:
			return fmt.Errorf("%s: answered explain without a known X-RK-Cache header (%q)", p.name, s.cache)
		}
	}
	delta := cacheStats{after.Hits - before.Hits, after.Misses - before.Misses, after.Coalesced - before.Coalesced, after.Bypassed - before.Bypassed}
	if got != delta {
		return fmt.Errorf("%s: headers hit/miss/coalesced/bypass %d/%d/%d/%d over %d answered explains, /stats deltas %d/%d/%d/%d",
			p.name, got.Hits, got.Misses, got.Coalesced, got.Bypassed, answered, delta.Hits, delta.Misses, delta.Coalesced, delta.Bypassed)
	}
	return nil
}
