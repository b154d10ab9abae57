package main

import (
	"encoding/json"
	"fmt"

	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// inputs are the seeded inputs of one run. The server sees only the snapshot
// written from context and the HTTP bodies rendered from the pools; the
// seed never reaches it.
type inputs struct {
	schema  *feature.Schema   // cceserver's adult schema: codes render with its value names
	context []feature.Labeled // the seeded context the server recovers at boot
	hot     []feature.Labeled // hotSetSize distinct instances explained again and again
	fresh   []feature.Labeled // distinct instances, none in hot; a server sees each at most once
	observe []feature.Labeled // distinct rows to /observe
	render  *renderer
}

// Purposes of the streams drawn from the seed, so the context, the explain
// instances and the observed rows are independent draws of one generator.
const (
	streamContext = 1 + iota
	streamExplain
	streamObserve
)

// streamSeed derives a dataset seed that is never 0 (0 selects the
// generator's default).
func streamSeed(seed int64, stream int) int64 { return seed*8 + int64(stream) }

// labeller is the model whose predictions label every row: a random forest
// trained on the paper-size adult train split, as cceserver -warm trains it.
// Its labels are a function of the instance, so identical instances always
// carry one label and a key exists for every instance at α = 1.
type labeller struct {
	schema *feature.Schema
	forest *model.Forest
}

func newLabeller() (*labeller, error) {
	ds, err := dataset.Load("adult", dataset.Options{})
	if err != nil {
		return nil, err
	}
	f, err := model.TrainForest(ds.Schema, ds.Train(), model.ForestConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	return &labeller{schema: ds.Schema, forest: f}, nil
}

// rows draws n adult instances under seed and labels them with the forest.
func (l *labeller) rows(seed int64, n int) ([]feature.Labeled, error) {
	ds, err := dataset.Load("adult", dataset.Options{Size: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	xs := make([]feature.Instance, len(ds.Instances))
	for i, li := range ds.Instances {
		if err := l.schema.Validate(li.X); err != nil {
			return nil, fmt.Errorf("generated instance outside the served schema: %w", err)
		}
		xs[i] = li.X
	}
	return model.Labels(l.forest, xs), nil
}

// distinctRows draws rows under seed until it has n whose instances are
// pairwise distinct and absent from exclude; it adds them to exclude.
func (l *labeller) distinctRows(seed int64, n int, exclude map[string]bool) ([]feature.Labeled, error) {
	out := make([]feature.Labeled, 0, n)
	for round := int64(0); len(out) < n; round++ {
		if round == 16 {
			return nil, fmt.Errorf("only %d of %d distinct instances after %d draws", len(out), n, round)
		}
		batch, err := l.rows(seed+round*1_000_003, n-len(out)+n/8+64)
		if err != nil {
			return nil, err
		}
		for _, li := range batch {
			k := instanceKey(li.X)
			if exclude[k] {
				continue
			}
			exclude[k] = true
			out = append(out, li)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

func instanceKey(x feature.Instance) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = byte(v) // adult cardinalities are far below 256
	}
	return string(b)
}

// buildInputs generates every input of one run of w. freshN and observeN
// size the pools; a phase that would need more stops early rather than
// repeat an instance.
func buildInputs(l *labeller, w workload, seed int64, freshN, observeN int) (*inputs, error) {
	ctxRows, err := l.rows(streamSeed(seed, streamContext), w.contextRows)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	explain, err := l.distinctRows(streamSeed(seed, streamExplain), hotSetSize+freshN, seen)
	if err != nil {
		return nil, err
	}
	observe, err := l.distinctRows(streamSeed(seed, streamObserve), observeN, map[string]bool{})
	if err != nil {
		return nil, err
	}
	return &inputs{
		schema:  l.schema,
		context: ctxRows,
		hot:     explain[:hotSetSize],
		fresh:   explain[hotSetSize:],
		observe: observe,
		render:  newRenderer(l.schema),
	}, nil
}

// renderer writes request bodies ({"values":{...},"prediction":...}, the
// shape of service.ExplainRequest and service.ObserveRequest) from codes,
// with every name and value quoted once up front.
type renderer struct {
	attrs  [][]byte   // `"Name":` per attribute
	values [][][]byte // quoted value names per attribute
	labels [][]byte   // quoted label names
}

func newRenderer(s *feature.Schema) *renderer {
	quote := func(v string) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // a string always marshals
		}
		return b
	}
	r := &renderer{}
	for _, a := range s.Attrs {
		r.attrs = append(r.attrs, append(quote(a.Name), ':'))
		vals := make([][]byte, len(a.Values))
		for i, v := range a.Values {
			vals[i] = quote(v)
		}
		r.values = append(r.values, vals)
	}
	for _, y := range s.Labels {
		r.labels = append(r.labels, quote(y))
	}
	return r
}

func (r *renderer) body(li feature.Labeled) []byte {
	b := make([]byte, 0, 384)
	b = append(b, `{"values":{`...)
	for a, v := range li.X {
		if a > 0 {
			b = append(b, ',')
		}
		b = append(b, r.attrs[a]...)
		b = append(b, r.values[a][v]...)
	}
	b = append(b, `},"prediction":`...)
	b = append(b, r.labels[li.Y]...)
	return append(b, '}')
}
