// Package tuple implements the Linda data model the paper's
// middleware is built on: tuples are ordered collections of typed
// fields, addressed associatively by matching against template tuples
// whose wildcard fields act as formals (Section 2 of the paper;
// Gelernter's "Generative Communication in Linda").
//
// Following JavaSpaces, every tuple also carries a type name (the
// Entry class in JavaSpaces); a template matches only tuples of the
// same type, unless the template's type is empty.
package tuple

import (
	"bytes"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the field value types carried by tuples.
type Kind int

// Supported field kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
	KindBytes
)

var kindNames = [...]string{"int", "float", "string", "bool", "bytes"}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Field is one typed slot of a tuple. A Field with Wildcard set is a
// formal: it matches any value of its kind. Name is optional
// documentation ("vector", "state", ...) and does not participate in
// matching, which is positional as in Linda.
type Field struct {
	Name     string
	Kind     Kind
	Wildcard bool

	// Exactly one of the following holds the value, selected by Kind,
	// for actual (non-wildcard) fields.
	Int   int64
	Float float64
	Str   string
	Bool  bool
	Bytes []byte
}

// Actual field constructors.

// Int returns an integer field.
func Int(name string, v int64) Field { return Field{Name: name, Kind: KindInt, Int: v} }

// Float returns a floating-point field.
func Float(name string, v float64) Field { return Field{Name: name, Kind: KindFloat, Float: v} }

// String returns a string field.
func String(name, v string) Field { return Field{Name: name, Kind: KindString, Str: v} }

// Bool returns a boolean field.
func Bool(name string, v bool) Field { return Field{Name: name, Kind: KindBool, Bool: v} }

// Bytes returns a binary field. The slice is copied.
func Bytes(name string, v []byte) Field {
	return Field{Name: name, Kind: KindBytes, Bytes: append([]byte(nil), v...)}
}

// Formal (wildcard) field constructors.

// AnyInt matches any integer.
func AnyInt(name string) Field { return Field{Name: name, Kind: KindInt, Wildcard: true} }

// AnyFloat matches any float.
func AnyFloat(name string) Field { return Field{Name: name, Kind: KindFloat, Wildcard: true} }

// AnyString matches any string.
func AnyString(name string) Field { return Field{Name: name, Kind: KindString, Wildcard: true} }

// AnyBool matches any boolean.
func AnyBool(name string) Field { return Field{Name: name, Kind: KindBool, Wildcard: true} }

// AnyBytes matches any binary value.
func AnyBytes(name string) Field { return Field{Name: name, Kind: KindBytes, Wildcard: true} }

// valueEqual reports whether two actual fields of the same kind carry
// the same value. Pointer receivers keep the hot matching loops from
// copying the 80-byte Field struct per comparison.
func valueEqual(a, b *Field) bool {
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return a.Float == b.Float
	case KindString:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	case KindBytes:
		return bytes.Equal(a.Bytes, b.Bytes)
	}
	return false
}

// String renders the field for traces.
func (f Field) String() string {
	if f.Wildcard {
		return fmt.Sprintf("?%s:%s", f.Name, f.Kind)
	}
	switch f.Kind {
	case KindInt:
		return fmt.Sprintf("%s=%d", f.Name, f.Int)
	case KindFloat:
		return fmt.Sprintf("%s=%g", f.Name, f.Float)
	case KindString:
		return fmt.Sprintf("%s=%q", f.Name, f.Str)
	case KindBool:
		return fmt.Sprintf("%s=%t", f.Name, f.Bool)
	case KindBytes:
		return fmt.Sprintf("%s=[%d bytes]", f.Name, len(f.Bytes))
	}
	return f.Name + "=?"
}

// Tuple is an ordered set of typed fields with a JavaSpaces-style
// type name.
type Tuple struct {
	Type   string
	Fields []Field
}

// New builds a tuple of the given type from fields.
func New(typeName string, fields ...Field) Tuple {
	return Tuple{Type: typeName, Fields: fields}
}

// Arity reports the number of fields.
func (t Tuple) Arity() int { return len(t.Fields) }

// HasWildcards reports whether any field is a formal, i.e. whether
// the tuple is usable only as a template.
func (t Tuple) HasWildcards() bool {
	for _, f := range t.Fields {
		if f.Wildcard {
			return true
		}
	}
	return false
}

// Clone returns a deep copy (byte fields included).
func (t Tuple) Clone() Tuple {
	c := Tuple{Type: t.Type, Fields: make([]Field, len(t.Fields))}
	copy(c.Fields, t.Fields)
	for i, f := range t.Fields {
		if f.Kind == KindBytes && f.Bytes != nil {
			c.Fields[i].Bytes = append([]byte(nil), f.Bytes...)
		}
	}
	return c
}

// CloneInto deep-copies src into *dst, reusing dst's field slice and
// byte-field buffers when their capacity allows — the steady-state
// allocation-free form of Clone for callers that recycle a
// destination across operations. dst must not alias src.
func CloneInto(dst *Tuple, src Tuple) {
	dst.Type = src.Type
	if cap(dst.Fields) >= len(src.Fields) {
		dst.Fields = dst.Fields[:len(src.Fields)]
	} else {
		dst.Fields = make([]Field, len(src.Fields))
	}
	for i := range src.Fields {
		f := src.Fields[i]
		if f.Kind == KindBytes && f.Bytes != nil {
			if old := dst.Fields[i].Bytes; cap(old) >= len(f.Bytes) {
				old = old[:len(f.Bytes)]
				copy(old, f.Bytes)
				f.Bytes = old
			} else {
				f.Bytes = append([]byte(nil), f.Bytes...)
			}
		}
		dst.Fields[i] = f
	}
}

// Equal reports structural equality of two tuples (type, arity,
// kinds, wildcard flags and values).
func (t Tuple) Equal(u Tuple) bool {
	if t.Type != u.Type || len(t.Fields) != len(u.Fields) {
		return false
	}
	for i := range t.Fields {
		a, b := &t.Fields[i], &u.Fields[i]
		if a.Kind != b.Kind || a.Wildcard != b.Wildcard {
			return false
		}
		if !a.Wildcard && !valueEqual(a, b) {
			return false
		}
	}
	return true
}

// Matches reports whether template t matches candidate u under Linda
// / JavaSpaces semantics:
//
//   - if the template's type name is non-empty, the candidate's must
//     equal it;
//   - arities must be equal;
//   - each template field must have the candidate field's kind;
//   - actual template fields must equal the candidate's value;
//     wildcard fields match any value of their kind.
//
// The candidate must not itself contain wildcards (templates match
// data, not other templates).
//
// The checks run cheapest-first: type name, arity, then a tight
// kind-signature scan over both field lists, and only then the value
// comparisons. Associative lookup scans every entry of a space with
// the same template, and most entries lose on type, arity or kind —
// those all reject without touching a single value.
func (t Tuple) Matches(u Tuple) bool {
	if t.Type != "" && t.Type != u.Type {
		return false
	}
	n := len(t.Fields)
	if n != len(u.Fields) {
		return false
	}
	// Kind-signature precheck; a wildcard candidate is never data, so
	// it is rejected in the same pass.
	for i := 0; i < n; i++ {
		if t.Fields[i].Kind != u.Fields[i].Kind || u.Fields[i].Wildcard {
			return false
		}
	}
	for i := 0; i < n; i++ {
		tf := &t.Fields[i]
		if !tf.Wildcard && !valueEqual(tf, &u.Fields[i]) {
			return false
		}
	}
	return true
}

// Signature hashing (FNV-1a, 64 bit). The space's associative indexes
// bucket entries and templates by structure: ShapeSig folds arity and
// field kinds, KindSig additionally folds the type name, and ValueSig
// extends KindSig with every field value. Matching is only possible
// between a template and a tuple that agree on arity and per-field
// kinds, so any template — wildcards included — pins a single shape
// (and, when typed, a single kind) bucket. All three run without
// allocating; variable-length values are length-prefixed so adjacent
// fields cannot alias ("ab","c" vs "a","bc").
const (
	sigOffset64 = 14695981039346656037
	sigPrime64  = 1099511628211
)

func sigByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * sigPrime64 }

func sigUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = sigByte(h, byte(v>>i))
	}
	return h
}

func sigString(h uint64, s string) uint64 {
	h = sigUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = sigByte(h, s[i])
	}
	return h
}

// ShapeSig hashes (arity, field kinds) — the coarsest index key: a
// template matches only tuples with its exact shape, whatever its
// type name or wildcard pattern.
func (t Tuple) ShapeSig() uint64 {
	h := uint64(sigOffset64)
	h = sigUint64(h, uint64(len(t.Fields)))
	for i := range t.Fields {
		h = sigByte(h, byte(t.Fields[i].Kind))
	}
	return h
}

// KindSig hashes (type, arity, field kinds): the bucket key for typed
// templates. Two tuples with equal KindSig pass Matches' cheapest-first
// prechecks against the same templates (modulo hash collisions, which
// the caller screens out with Matches itself).
func (t Tuple) KindSig() uint64 {
	h := uint64(sigOffset64)
	h = sigString(h, t.Type)
	h = sigUint64(h, uint64(len(t.Fields)))
	for i := range t.Fields {
		h = sigByte(h, byte(t.Fields[i].Kind))
	}
	return h
}

// sigField folds one actual field's value, the per-field unit of
// ValueSig and RouteSig. Adjacent variable-length values are
// length-prefixed, and floats canonicalize -0.0 (Matches compares
// floats with ==, under which -0.0 equals +0.0 — both must share a
// signature).
func sigField(h uint64, f *Field) uint64 {
	switch f.Kind {
	case KindInt:
		h = sigUint64(h, uint64(f.Int))
	case KindFloat:
		bits := math.Float64bits(f.Float)
		if f.Float == 0 {
			bits = 0
		}
		h = sigUint64(h, bits)
	case KindString:
		h = sigString(h, f.Str)
	case KindBool:
		if f.Bool {
			h = sigByte(h, 1)
		} else {
			h = sigByte(h, 0)
		}
	case KindBytes:
		h = sigUint64(h, uint64(len(f.Bytes)))
		for _, b := range f.Bytes {
			h = sigByte(h, b)
		}
	}
	return h
}

// ValueSig extends KindSig with every field value, giving the
// exact-match index key: a wildcard-free typed template matches a
// tuple if and only if their ValueSigs collide (true collisions are
// re-checked with Matches). ok is false when t carries wildcards —
// wildcard templates have no value signature.
func (t Tuple) ValueSig() (sig uint64, ok bool) {
	return t.RouteSig(len(t.Fields))
}

// RouteSig hashes the tuple's shard-routing signature at the given
// prefix depth: KindSig extended with the first min(prefix, arity)
// field values, folded exactly as ValueSig folds them. Two useful
// extremes anchor the scale:
//
//   - RouteSig(0) is KindSig — every tuple of one (type, shape) shares
//     a route, so a typed template routes to the single shard holding
//     everything it could match, wildcards or not;
//   - RouteSig(arity) is ValueSig byte for byte — the PR-4 value
//     hashing, under which only wildcard-free templates route.
//
// ok is false when a wildcard falls inside the prefix window: such a
// template matches tuples carrying any value there, which hash to
// different routes. A data tuple (no wildcards) always routes.
func (t Tuple) RouteSig(prefix int) (sig uint64, ok bool) {
	h := t.KindSig()
	n := prefix
	if n > len(t.Fields) {
		n = len(t.Fields)
	}
	for i := 0; i < n; i++ {
		f := &t.Fields[i]
		if f.Wildcard {
			return 0, false
		}
		h = sigField(h, f)
	}
	return h, true
}

// String renders the tuple for traces.
func (t Tuple) String() string {
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.String()
	}
	return fmt.Sprintf("%s(%s)", t.Type, strings.Join(parts, ", "))
}
