package vectordb

import (
	"fmt"
	"strings"
)

// filter is a compiled Where: a document matches when its metadata holds
// every listed field with an equal value. The empty filter matches all.
type filter []fieldEq

type fieldEq struct {
	field string
	want  any
}

// compileFilter checks a Where map and compiles it: each value must be a
// string, a bool or a number, and no key an operator.
func compileFilter(where Metadata) (filter, error) {
	f := make(filter, 0, len(where))
	for field, want := range where {
		if strings.HasPrefix(field, "$") {
			return nil, fmt.Errorf("operator %q: Where compares fields for equality only", field)
		}
		if !isScalar(want) {
			return nil, fmt.Errorf("field %q: Where takes a string, bool or number, got %T", field, want)
		}
		f = append(f, fieldEq{field, want})
	}
	return f, nil
}

func (f filter) matches(md Metadata) bool {
	for _, eq := range f {
		got, ok := md[eq.field]
		if !ok || !scalarEqual(got, eq.want) {
			return false
		}
	}
	return true
}

func isScalar(v any) bool {
	switch v.(type) {
	case string, bool:
		return true
	}
	_, ok := toFloat(v)
	return ok
}

// scalarEqual compares a stored metadata value with a scalar b, with
// JSON-style numeric coercion (int vs float64 from decoded JSON). Because
// b is a scalar, a == b never compares two values of an uncomparable type.
func scalarEqual(a, b any) bool {
	if fa, ok := toFloat(a); ok {
		if fb, ok2 := toFloat(b); ok2 {
			return fa == fb
		}
		return false
	}
	return a == b
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	default:
		return 0, false
	}
}
