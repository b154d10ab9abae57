package cce

import (
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// Store is the one owner of an inference context (§6, Appendix B), shared by
// Window and the HTTP service: the indexed rows, the retention bound that
// retires the oldest row once full, arrival order, and a version that never
// moves backwards, also across Replace. Its owner serializes access.
type Store struct {
	schema *feature.Schema
	retain int // max live rows; 0 = grow forever

	ctx *core.Context
	// ring holds the live slots oldest-first from head, only when retain > 0:
	// an unbounded store never removes, so its slot order is arrival order.
	ring       []int
	head, size int
	base       uint64 // folds in the stamps of replaced indexes; see Version
}

// NewStore builds an empty store keeping at most retain rows (0 = unbounded).
func NewStore(schema *feature.Schema, retain int) *Store {
	st := &Store{schema: schema, retain: retain}
	_ = st.Replace(nil) //rkvet:ignore dropperr an empty row set cannot fail validation
	return st
}

// Push appends one row. An invalid row is refused before anything changes;
// a valid one first retires the oldest row when the store is full, so its
// slot is reused and the index never holds more than retain slots.
func (st *Store) Push(li feature.Labeled) error {
	if st.ring == nil {
		return st.ctx.Add(li)
	}
	if err := st.schema.ValidateLabeled(li); err != nil {
		return err
	}
	if st.size == st.retain {
		if err := st.ctx.Remove(st.ring[st.head]); err != nil {
			return err
		}
		st.head, st.size = (st.head+1)%st.retain, st.size-1
	}
	slot, err := st.ctx.AddSlot(li)
	if err != nil {
		return err
	}
	st.ring[(st.head+st.size)%st.retain] = slot
	st.size++
	return nil
}

// Replace swaps in a fresh index of items (oldest first), keeping the newest
// retain of them. It is built aside and installed only on success: a Replace
// that meets an invalid row leaves the old rows and version serving.
func (st *Store) Replace(items []feature.Labeled) error {
	if st.retain > 0 && len(items) > st.retain {
		items = items[len(items)-st.retain:]
	}
	ctx, err := core.NewContextSized(st.schema, nil, max(st.retain, len(items)))
	if err != nil {
		return err
	}
	var ring []int
	if st.retain > 0 {
		ring = make([]int, st.retain)
	}
	for i, li := range items {
		slot, err := ctx.AddSlot(li)
		if err != nil {
			return err
		}
		if ring != nil {
			ring[i] = slot
		}
	}
	if st.ctx != nil {
		st.base += st.ctx.Version() + 1
	}
	st.ctx, st.ring, st.head, st.size = ctx, ring, 0, len(items)
	return nil
}

// Context exposes the index for solving; Push mutates it in place and
// Replace swaps it, so readers hold the owner's lock.
func (st *Store) Context() *core.Context { return st.ctx }

// Len reports the live row count.
func (st *Store) Len() int { return st.ctx.Len() }

// Version is the stamp explanation caches key on (DESIGN.md §15): it moves
// with every row pushed or retired and, on Replace, past every stamp the old
// index used, so equal versions imply identical rows for the store's life.
func (st *Store) Version() uint64 { return st.base + st.ctx.Version() }

// Items returns the live rows oldest first, the order a snapshot persists so
// retention retires the same rows after a recovery.
func (st *Store) Items() []feature.Labeled {
	if st.ring == nil {
		return st.ctx.LiveItems()
	}
	out := make([]feature.Labeled, 0, st.size)
	for i := 0; i < st.size; i++ {
		out = append(out, st.ctx.Item(st.ring[(st.head+i)%st.retain]))
	}
	return out
}
