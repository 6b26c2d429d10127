// Package determinism_bad seeds determinism violations for the lint golden
// tests: wall-clock reads, the global math/rand generator, and map
// iteration order that leaks through an early exit, a function value, a
// pointer-receiver method, a method's result, a value carried into the
// next iteration or a for loop's post statement, a bare return, or state
// that outlives the call (the receiver, a pointer parameter, a package
// variable). detflow_bad holds the leaks that reach a sink through a
// local collection.
//
//repro:deterministic
package determinism_bad

import (
	"container/list"
	"math/rand"
	"sort"
	"time"
)

// Clock leaks wall-clock time into a result.
func Clock() (int64, time.Duration) {
	now := time.Now()                  // want `call to time.Now in deterministic scope`
	return now.Unix(), time.Since(now) // want `call to time.Since in deterministic scope`
}

// Roll uses the global math/rand generator.
func Roll() int {
	return rand.Intn(6) // want `global math/rand call rand.Intn`
}

// SeededRoll uses a locally seeded generator: deterministic, no finding.
func SeededRoll() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(6)
}

// FirstKey returns whichever key the runtime enumerates first.
func FirstKey(m map[string]int) string {
	for k := range m {
		return k // want `range at line 39. reaches a return value`
	}
	return ""
}

// Callback invokes fn in unspecified order.
func Callback(m map[string]int, fn func(string, int)) {
	for k, v := range m {
		fn(k, v) // want `reaches a call through a function value`
	}
}

// Listed stores keys through a pointer-receiver method, so the list holds
// them in map order.
func Listed(m map[string]int) *list.List {
	l := list.New()
	for k := range m {
		l.PushBack(k)
	}
	return l // want `range at line 56. reaches a return value`
}

// CountUntil stops at the first negative value: how many entries it counted
// depends on the order it met them in.
func CountUntil(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v < 0 {
			break
		}
		n++
	}
	return n // want `range at line 66. reaches a return value`
}

type journal struct{ err error }

func (j *journal) close() error { return j.err }

// FirstError returns whichever failure map order meets first: a
// same-package method called on a map value returns the value's taint.
func FirstError(m map[string]*journal) error {
	var first error
	for _, j := range m {
		if err := j.close(); err != nil && first == nil {
			first = err
		}
	}
	return first // want `range at line 83. reaches a return value`
}

// StepsUntil returns from the range before a nested loop's own break: the
// return still leaves the range early, so the count depends on the order.
func StepsUntil(m map[string]int) int {
	steps := 0
	for _, v := range m {
		if v < 0 {
			return -1
		}
		for i := 0; i < v; i++ {
			if i > 3 {
				break
			}
			steps++
		}
	}
	return steps // want `range at line 95. reaches a return value`
}

// S holds state that outlives each method call.
type S struct {
	order []string
	l     *list.List
	limit int
}

// Order appends keys to the receiver in map order and returns nothing.
func (s *S) Order(m map[string]int) {
	for k := range m {
		s.order = append(s.order, k) // want `reaches state that outlives the call .s.`
	}
}

// Queue pushes keys onto the receiver's list in map order. Both of its
// exits leave the list so, and the leak is flagged once.
func (s *S) Queue(m map[string]int, limit int) {
	for k := range m {
		s.l.PushBack(k) // want `reaches state that outlives the call .s.`
	}
	if limit < 0 {
		return
	}
	s.limit = limit
}

// Drain sorts the keys it collected into the receiver, but only after an
// early return that leaves them unsorted.
func (s *S) Drain(m map[string]int, stop bool) {
	for k := range m {
		s.order = append(s.order, k) // want `reaches state that outlives the call .s.`
	}
	if stop {
		return
	}
	sort.Strings(s.order)
}

// Fill appends keys through a pointer parameter in map order.
func Fill(dst *[]string, m map[string]int) {
	for k := range m {
		*dst = append(*dst, k) // want `reaches state that outlives the call .dst.`
	}
}

var seen []string

// Remember appends keys to a package variable in map order.
func Remember(m map[string]int) {
	for k := range m {
		seen = append(seen, k) // want `reaches state that outlives the call .seen.`
	}
}

// Named returns the unsorted keys through a bare return.
func Named(m map[string]int) (keys []string) {
	for k := range m {
		keys = append(keys, k)
	}
	return // want `reaches a return value`
}

// Trail appends the key met two iterations earlier: the value crosses
// from one iteration into the ones after it.
func Trail(m map[string]int) []string {
	var out []string
	older, prev := "", ""
	for k := range m {
		out = append(out, older)
		older, prev = prev, k
	}
	return out // want `reaches a return value`
}

// Latest hands each round's pick to the next through the loop's post
// statement; the pick is whichever key the range met first.
func Latest(m map[string]int, rounds int) string {
	var pick, prev string
	for i := 0; i < rounds; i, prev = i+1, pick {
		for k := range m {
			pick = k
			break
		}
	}
	return prev // want `reaches a return value`
}

// Reset clears its pick in a loop that may not run at all.
func Reset(m map[string]int, n int) string {
	pick := ""
	for k := range m {
		pick = k
		break
	}
	for i := 0; i < n; i++ {
		pick = ""
	}
	return pick // want `reaches a return value`
}

// Jitter draws from the global generator on every pass of a loop: one
// finding, however often the loop body is walked.
func Jitter(n int) (sum int) {
	for i := 0; i < n; i++ {
		sum += rand.Intn(6) // want `global math/rand call rand.Intn`
	}
	return sum
}
