// Package generics_ok exercises the lint loader's typechecking path on
// type-parameterized code. It must load and analyze clean under the full
// suite: the gc importer and from-source typechecker both have to cope with
// generic declarations, instantiations, and constraint interfaces.
//
//repro:deterministic
package generics_ok

import "sort"

// Ordered is a local constraint interface with type terms.
type Ordered interface {
	~int | ~int64 | ~float64 | ~string
}

// Stack is a generic container.
type Stack[T any] struct {
	items []T
}

// Push appends an element.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Pop removes and returns the top element.
func (s *Stack[T]) Pop() (T, bool) {
	var zero T
	if len(s.items) == 0 {
		return zero, false
	}
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v, true
}

// Max folds a slice with a generic comparison.
func Max[T Ordered](xs []T) (T, bool) {
	var best T
	if len(xs) == 0 {
		return best, false
	}
	best = xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best, true
}

// SortedKeys instantiates a generic helper over map keys — deterministic via
// collect-then-sort, so the determinism analyzer must accept it.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// UseInstantiations pins concrete instantiations into the export data.
func UseInstantiations() int {
	var s Stack[int]
	s.Push(1)
	s.Push(2)
	v, _ := s.Pop()
	best, _ := Max([]float64{1, 2, 3})
	keys := SortedKeys(map[string]int{"a": v})
	return v + int(best) + len(keys)
}
