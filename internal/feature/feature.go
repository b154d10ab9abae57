// Package feature defines discrete feature spaces, instances, and numeric
// bucketing — the data model shared by every explainer and model in the
// repository. Following the paper (§2), all features are discrete; numeric
// attributes are discretized with a Bucketer before entering a Schema.
package feature

import (
	"errors"
	"fmt"
	"strings"
)

// Value is a code into an attribute's value list.
type Value = int32

// Label is a model prediction code.
type Label = int32

// Attribute describes a single discrete feature and its domain.
type Attribute struct {
	Name   string
	Values []string // domain dom(A); Value v names Values[v]
}

// Cardinality returns |dom(A)|.
func (a *Attribute) Cardinality() int { return len(a.Values) }

// ValueCode returns the code for a named value, or -1 if absent.
func (a *Attribute) ValueCode(name string) Value {
	for i, v := range a.Values {
		if v == name {
			return Value(i)
		}
	}
	return -1
}

// Schema is an ordered list of attributes defining a feature space
// X(A1,...,An), plus the label space.
type Schema struct {
	Attrs  []Attribute
	Labels []string // label space Y; Label y names Labels[y]

	byName map[string]int
}

// NewSchema builds a schema and validates that attribute names are unique and
// every domain is non-empty.
func NewSchema(attrs []Attribute, labels []string) (*Schema, error) {
	if len(labels) == 0 {
		return nil, errors.New("feature: schema needs at least one label")
	}
	s := &Schema{Attrs: attrs, Labels: labels, byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("feature: attribute %d has empty name", i)
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("feature: attribute %q has empty domain", a.Name)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("feature: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for package-level
// construction of fixed schemas.
func MustSchema(attrs []Attribute, labels []string) *Schema {
	s, err := NewSchema(attrs, labels)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFeatures returns n, the number of attributes.
func (s *Schema) NumFeatures() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// LabelCode returns the code of a named label, or -1.
func (s *Schema) LabelCode(name string) Label {
	for i, l := range s.Labels {
		if l == name {
			return Label(i)
		}
	}
	return -1
}

// Validate checks that an instance is inside the feature space.
func (s *Schema) Validate(x Instance) error {
	if len(x) != len(s.Attrs) {
		return fmt.Errorf("feature: instance has %d values, schema has %d attributes", len(x), len(s.Attrs))
	}
	for i, v := range x {
		if v < 0 || int(v) >= len(s.Attrs[i].Values) {
			return fmt.Errorf("feature: value %d out of domain for attribute %q (cardinality %d)",
				v, s.Attrs[i].Name, len(s.Attrs[i].Values))
		}
	}
	return nil
}

// ValidateLabeled checks that an instance is inside the feature space and its
// prediction inside the label space.
func (s *Schema) ValidateLabeled(li Labeled) error {
	if err := s.Validate(li.X); err != nil {
		return err
	}
	if li.Y < 0 || int(li.Y) >= len(s.Labels) {
		return fmt.Errorf("feature: prediction %d outside label space of size %d", li.Y, len(s.Labels))
	}
	return nil
}

// SpaceSize returns |X| as a float64 (it can overflow int64 for wide schemas).
func (s *Schema) SpaceSize() float64 {
	size := 1.0
	for _, a := range s.Attrs {
		size *= float64(len(a.Values))
	}
	return size
}

// Instance is a tuple in the feature space: one value code per attribute.
type Instance []Value

// Clone returns a copy of the instance.
func (x Instance) Clone() Instance {
	y := make(Instance, len(x))
	copy(y, x)
	return y
}

// Equal reports componentwise equality.
func (x Instance) Equal(y Instance) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// AgreesOn reports whether x[E] == y[E] for the feature index set E.
func (x Instance) AgreesOn(y Instance, E []int) bool {
	for _, i := range E {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// String formats an instance against a schema for debugging and examples.
func (x Instance) String() string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Render formats the instance with attribute names and value strings.
func Render(s *Schema, x Instance) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = s.Attrs[i].Name + "=" + s.Attrs[i].Values[v]
	}
	return strings.Join(parts, ", ")
}

// Labeled couples an instance with a prediction (or ground-truth label).
type Labeled struct {
	X Instance
	Y Label
}
