package cce

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
)

// TestStore drives one store per retention bound through a fill, a ring
// wrap, a failed Replace, a successful Replace and a second wrap, checking
// the store's contract after every step: rows come back in arrival order,
// the index never holds more slots than it needs, the version strictly
// increases, and a Replace that meets an invalid row changes nothing.
func TestStore(t *testing.T) {
	values := make([]string, 64)
	for i := range values {
		values[i] = fmt.Sprintf("v%d", i)
	}
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "ID", Values: values},
		{Name: "B", Values: []string{"b0", "b1"}},
	}, []string{"no", "yes"})
	// row(i) is distinguishable from every other row, so Items' order shows.
	row := func(i int) feature.Labeled {
		return feature.Labeled{X: feature.Instance{feature.Value(i), feature.Value(i % 2)}, Y: feature.Label(i % 3 % 2)}
	}

	for _, retain := range []int{0, 1, 5} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			st := NewStore(schema, retain)
			var arrived []feature.Labeled // every row the store accepted, in order
			version := st.Version()
			check := func(stage string) {
				t.Helper()
				want := arrived
				if retain > 0 && len(want) > retain {
					want = want[len(want)-retain:]
				}
				if got := st.Items(); !reflect.DeepEqual(got, append([]feature.Labeled{}, want...)) {
					t.Fatalf("%s: Items() = %v, want arrival order %v", stage, got, want)
				}
				if st.Len() != len(want) {
					t.Fatalf("%s: Len() = %d, want %d", stage, st.Len(), len(want))
				}
				// Tighter than max(retain, pushed): a bounded store reuses the
				// retired row's slot, so it never holds more than min of the two.
				if slots := st.Context().NumSlots(); slots > len(want) {
					t.Fatalf("%s: %d slots for %d rows pushed under retain=%d", stage, slots, len(arrived), retain)
				}
				if v := st.Version(); v <= version {
					t.Fatalf("%s: version %d did not increase past %d", stage, v, version)
				}
				version = st.Version()
			}
			push := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					if err := st.Push(row(i)); err != nil {
						t.Fatal(err)
					}
					arrived = append(arrived, row(i))
					check(fmt.Sprintf("push %d", i))
				}
			}

			push(0, 12) // wraps the ring at least twice for retain ∈ {1, 5}

			// An invalid push is refused before anything changes, including
			// the oldest row a full store would otherwise retire.
			before := st.Items()
			if err := st.Push(feature.Labeled{X: feature.Instance{0, 7}, Y: 0}); err == nil {
				t.Fatal("Push accepted an out-of-domain row")
			}
			if err := st.Push(feature.Labeled{X: feature.Instance{0, 0}, Y: 9}); err == nil {
				t.Fatal("Push accepted an out-of-range label")
			}
			if st.Version() != version || !reflect.DeepEqual(st.Items(), before) {
				t.Fatal("refused Push changed the store")
			}

			// A Replace that meets an invalid row leaves the old rows and
			// version serving.
			bad := []feature.Labeled{row(40), row(41), {X: feature.Instance{63, 5}, Y: 1}}
			if err := st.Replace(bad); err == nil {
				t.Fatal("Replace accepted an out-of-domain row")
			}
			if st.Version() != version || !reflect.DeepEqual(st.Items(), before) {
				t.Fatalf("failed Replace changed the store: version %d (was %d), items %v (was %v)", st.Version(), version, st.Items(), before)
			}

			// A successful Replace keeps the newest retain rows, in order, and
			// moves the version past everything the old index used — even
			// though the fresh index's own stamp restarts at zero.
			fresh := []feature.Labeled{row(20), row(21), row(22), row(23), row(24), row(25), row(26)}
			if err := st.Replace(fresh); err != nil {
				t.Fatal(err)
			}
			arrived = append([]feature.Labeled{}, fresh...)
			check("replace")

			push(30, 42) // retention resumes from the replaced rows

			if err := st.Replace(nil); err != nil {
				t.Fatal(err)
			}
			arrived = nil
			check("replace with nothing")
		})
	}
}
