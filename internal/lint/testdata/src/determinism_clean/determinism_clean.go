// Package determinism_clean exercises every flow the determinism analyzer
// must accept: sorted emission, order-independent folds, keyed writes,
// length-only observations, existence checks, branches that stay inside
// the range, and caller-visible state sorted before the call returns.
//
//repro:deterministic
package determinism_clean

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// SortedKeys is the canonical collect-then-sort idiom.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PrintSorted emits only after sorting.
func PrintSorted(w io.Writer, m map[string]int) {
	keys := SortedKeys(m)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// Sum folds commutatively: numeric += is order-independent.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Count observes only the cardinality.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Invert writes through keys: map contents are a set, order-free.
func Invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// Size returns only the length of the collected slice.
func Size(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return len(keys)
}

// HasNegative returns from inside the range, but only a constant: whether
// some value is negative does not depend on the order.
func HasNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

// SkipNegative counts past a continue, which visits every entry.
func SkipNegative(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v < 0 {
			continue
		}
		n++
	}
	return n
}

// Expired counts the entries older than now and hands now back as the next
// cutoff: time.Time.After has a value receiver, so now stays untainted.
func Expired(now time.Time, m map[string]time.Time) (int, time.Time) {
	n := 0
	for _, t := range m {
		if now.After(t) {
			n++
		}
	}
	return n, now
}

// Retry jumps back to a label inside the range body: the goto stays in the
// loop, so every entry is still counted.
func Retry(m map[string]int) int {
	n := 0
	for _, v := range m {
	again:
		if v > 0 {
			v--
			goto again
		}
		n++
	}
	return n
}

// T keeps its keys sorted.
type T struct{ keys []string }

// Load collects keys into the receiver, drops the empty one and sorts
// them before returning; the filter's return is the closure's own.
func (t *T) Load(m map[string]int) {
	for k := range m {
		t.keys = append(t.keys, k)
	}
	t.keys = slices.DeleteFunc(t.keys, func(k string) bool { return k == "" })
	sort.Strings(t.keys)
}

// Tally folds into a pointer parameter: the sum commutes.
func Tally(total *int, m map[string]int) {
	for _, v := range m {
		*total += v
	}
}

// Longest passes the unsorted keys to a helper that only measures them.
func Longest(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return longest(keys)
}

func longest(keys []string) int {
	n := 0
	for _, k := range keys {
		n = max(n, len(k))
	}
	return n
}
