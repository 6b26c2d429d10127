package asm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// diffTwoPass compares Assemble's outcome for src with the two-pass
// reference's and describes the first difference, or returns "" when they
// agree: the same error text and line, or the same instructions, data
// runs, symbols and digest.
func diffTwoPass(src string) string {
	got, gerr := Assemble(src)
	want, werr := assembleTwoPass(src)
	if gerr != nil || werr != nil {
		var ge, we *Error
		switch {
		case gerr == nil || werr == nil || gerr.Error() != werr.Error():
			return fmt.Sprintf("error %v, reference error %v", gerr, werr)
		case errors.As(gerr, &ge) != errors.As(werr, &we) || ge != nil && ge.Line != we.Line:
			return fmt.Sprintf("error %#v, reference error %#v", gerr, werr)
		}
		return ""
	}
	if !slices.Equal(got.Insts(), want.Insts()) {
		return fmt.Sprintf("instructions %v, reference %v", got.Insts(), want.Insts())
	}
	gd, wd := got.DataSegments(), want.DataSegments()
	if len(gd) != len(wd) {
		return fmt.Sprintf("%d data runs, reference %d", len(gd), len(wd))
	}
	for i := range gd {
		if gd[i].Addr != wd[i].Addr || !bytes.Equal(gd[i].Bytes, wd[i].Bytes) {
			return fmt.Sprintf("data run %d at %#x % x, reference at %#x % x", i, gd[i].Addr, gd[i].Bytes, wd[i].Addr, wd[i].Bytes)
		}
	}
	if gs, ws := got.Symbols(), want.Symbols(); !slices.Equal(gs, ws) {
		return fmt.Sprintf("symbols %q, reference %q", gs, ws)
	}
	for _, name := range got.Symbols() {
		g, _ := got.Symbol(name)
		w, _ := want.Symbol(name)
		if g != w {
			return fmt.Sprintf("symbol %s at %#x, reference %#x", name, g, w)
		}
	}
	if got.Digest() != want.Digest() {
		return "digests differ"
	}
	return ""
}

// FuzzAssemble holds Assemble, which lays data out in pass 1, to the
// two-pass reference that parses data values in pass 2 (twoPass): for
// every source the same program, or the same error at the same line.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffTwoPass(src); d != "" {
			t.Fatalf("source %q: %s", src, d)
		}
	})
}
