package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
)

// ExactMinKey computes a most-succinct α-conformant key for x relative to c
// by iterative-deepening search over feature subsets. MRKP is NP-complete
// (Theorem 1), so this is exponential in the worst case; it exists to
// validate SRK's ln(α|I|) bound on small inputs and to solve tiny instances
// exactly. maxFeatures caps n to keep runaway inputs out (0 means 20).
func ExactMinKey(c *Context, x feature.Instance, y feature.Label, alpha float64, maxFeatures int) (Key, error) {
	return ExactMinKeyCtx(context.Background(), c, x, y, alpha, maxFeatures) //rkvet:ignore ctxflow ExactMinKey is the sanctioned run-to-completion specialization used by the bound-validation tests
}

// ExactMinKeyCtx is ExactMinKey with cooperative cancellation: the search
// checks ctx every 256 expanded nodes (exactCancelMask). Unlike the greedy
// solvers, the subset search holds no valid intermediate candidate, so
// cancellation aborts with an error satisfying errors.Is(err, ErrDeadline)
// as well as errors.Is against the context's own cause; callers degrade by
// falling back to SRKAnytimePar, whose candidate is valid by construction.
func ExactMinKeyCtx(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, maxFeatures int) (Key, error) {
	start := time.Now()
	sp := obs.StartSpan(ctx, "exact.dfs")
	key, err := exactMinKeyCtx(ctx, c, x, y, alpha, maxFeatures)
	sp.End()
	exactDFSSeconds.ObserveSince(start)
	if err == ErrNoKey {
		solverNoKey.Inc()
	}
	return key, err
}

// exactMinKeyCtx is the uninstrumented iterative-deepening search;
// ExactMinKeyCtx wraps it with the stage timer and span.
func exactMinKeyCtx(ctx context.Context, c *Context, x feature.Instance, y feature.Label, alpha float64, maxFeatures int) (Key, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := c.Schema.Validate(x); err != nil {
		return nil, err
	}
	n := c.Schema.NumFeatures()
	if maxFeatures <= 0 {
		maxFeatures = 20
	}
	if n > maxFeatures {
		return nil, fmt.Errorf("core: exact solver limited to %d features, schema has %d", maxFeatures, n)
	}
	budget := Budget(alpha, c.Len())

	// Precompute, per feature, the violator rows surviving that feature, as
	// row index lists; subsets are then checked by intersecting counts.
	violators := violatorRows(c, x, y)
	if len(violators) <= budget {
		return Key{}, nil
	}
	// survives[a][r] = true iff violator r agrees with x on feature a.
	survives := make([][]bool, n)
	for a := 0; a < n; a++ {
		survives[a] = make([]bool, len(violators))
		for r, i := range violators {
			survives[a][r] = c.Item(i).X[a] == x[a]
		}
	}
	all := make([]int, len(violators))
	for r := range all {
		all[r] = r
	}

	choice := make([]int, 0, n)
	var found Key
	nodes, cancelled := 0, false
	var dfs func(start, size int, alive []int) bool
	dfs = func(start, size int, alive []int) bool {
		nodes++
		if nodes&exactCancelMask == 0 && ctx.Err() != nil {
			cancelled = true
		}
		if cancelled {
			return false
		}
		if len(alive) <= budget {
			found = NewKey(choice...)
			return true
		}
		if size == 0 {
			return false
		}
		// Not enough features left to fill the subset.
		for a := start; a <= n-size; a++ {
			next := make([]int, 0, len(alive))
			for _, r := range alive {
				if survives[a][r] {
					next = append(next, r)
				}
			}
			choice = append(choice, a)
			if dfs(a+1, size-1, next) {
				return true
			}
			choice = choice[:len(choice)-1]
		}
		return false
	}

	for size := 1; size <= n; size++ {
		choice = choice[:0]
		if dfs(0, size, all) {
			return found, nil
		}
		if cancelled {
			return nil, errors.Join(ErrDeadline, ctx.Err())
		}
	}
	return nil, ErrNoKey
}

// violatorRows lists the live rows whose prediction differs from y. Dead
// slots keep their last occupant, so they are skipped explicitly.
func violatorRows(c *Context, x feature.Instance, y feature.Label) []int {
	var rows []int
	for i, li := range c.Items() {
		if c.Alive(i) && li.Y != y {
			rows = append(rows, i)
		}
	}
	return rows
}
