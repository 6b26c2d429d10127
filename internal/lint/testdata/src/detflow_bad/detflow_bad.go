// Package detflow_bad seeds map-iteration-order leaks that only a dataflow
// pass sees: a value built in map order travels through variables and
// reaches a return, a print, a channel, an emitting helper or a writer
// without an intervening sort. The determinism analyzer's taint pass must
// report each at its sink.
//
//repro:deterministic
package detflow_bad

import (
	"fmt"
	"io"
)

// Keys collects map keys and returns them unsorted.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want `value derived from map iteration .range at line 18. reaches a return value without an intervening sort`
}

// Dump prints entries in map order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `reaches fmt.Fprintf without an intervening sort`
	}
}

// Join concatenates in map order: string += is order-dependent, unlike
// numeric accumulation.
func Join(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s // want `reaches a return value without an intervening sort`
}

// Send leaks iteration order through a channel.
func Send(m map[int]bool, ch chan int) {
	for k := range m {
		ch <- k // want `reaches a channel send without an intervening sort`
	}
}

// Forward hands the unsorted collection to a helper that emits it: the
// one-call-deep summary catches the leak at the call site.
func Forward(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	dump(w, keys) // want `reaches a call to dump, which emits it`
}

func dump(w io.Writer, keys []string) {
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// WriteAll emits through an io helper in map order.
func WriteAll(w io.Writer, m map[string]bool) {
	for k := range m {
		io.WriteString(w, k) // want `reaches WriteString call without an intervening sort`
	}
}
