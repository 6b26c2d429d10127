package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stageMap is the function-to-stage map the CPU profile is folded through.
// It lives beside the benchmark so a refactor that renames a stage's
// functions shows up as a growing stage.other share until the map follows.
//
//go:embed stages.map
var stageMap string

// stageNames lists the stages in report order; "other" collects samples no
// rule matches.
var stageNames = []string{"construct", "fetch", "dispatch", "issue", "writeback", "commit", "recovery", "renamer", "regfile", "memsys", "bpred", "runtime", "other"}

// stageRule assigns functions to a stage. A pattern ending in "." or "/"
// matches every function it prefixes (a package); any other pattern matches
// that function and the closures inside it.
type stageRule struct{ stage, pattern string }

func parseStageMap(text string) ([]stageRule, error) {
	known := map[string]bool{}
	for _, s := range stageNames {
		known[s] = true
	}
	var rules []stageRule
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !known[f[0]] || f[0] == "other" {
			return nil, fmt.Errorf("stage map line %d: want \"<stage> <function or package prefix>\", got %q", ln, line)
		}
		rules = append(rules, stageRule{f[0], f[1]})
	}
	return rules, sc.Err()
}

func (r stageRule) matches(fn string) bool {
	if strings.HasSuffix(r.pattern, ".") || strings.HasSuffix(r.pattern, "/") {
		return strings.HasPrefix(fn, r.pattern)
	}
	return fn == r.pattern || strings.HasPrefix(fn, r.pattern+".func")
}

// stageOf attributes a stack, leaf first, to the stage of its innermost
// frame that a rule matches. Runtime rules apply to the leaf frame only:
// every goroutine's stack starts in the runtime (runtime.goexit,
// runtime/pprof.Do), which must not swallow the samples no other rule
// matches.
func stageOf(stack []string, rules []stageRule) string {
	for i, fn := range stack {
		for _, r := range rules {
			if (i == 0 || r.stage != "runtime") && r.matches(fn) {
				return r.stage
			}
		}
	}
	return "other"
}

// profileSample is one CPU-profile sample: its stack as function names,
// leaf first (inlined frames included), its labels, and its CPU time.
type profileSample struct {
	stack  []string
	labels map[string]string
	nanos  int64
}

// stageShares folds samples through the stage rules, separately for each
// value of the label key, and returns each stage's share of that label's
// CPU time in percent. Samples without the label are left out.
func stageShares(samples []profileSample, rules []stageRule, key string) map[string]map[string]float64 {
	ns := map[string]map[string]int64{}
	tot := map[string]int64{}
	for _, s := range samples {
		v, ok := s.labels[key]
		if !ok {
			continue
		}
		if ns[v] == nil {
			ns[v] = map[string]int64{}
		}
		ns[v][stageOf(s.stack, rules)] += s.nanos
		tot[v] += s.nanos
	}
	out := map[string]map[string]float64{}
	for v, m := range ns {
		out[v] = map[string]float64{}
		for st, n := range m {
			out[v][st] = 100 * float64(n) / float64(tot[v])
		}
	}
	return out
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what the stage fold needs.
func parseProfile(data []byte) ([]profileSample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // string-table indexes of key and value
	}
	var (
		raws    []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnNames = map[uint64]uint64{}   // function id -> name index
	)
	err := fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, b)
				case 2:
					s.values, err = varints(s.values, wire, v, b)
				case 3:
					var kv [2]uint64
					err = fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profileSample, 0, len(raws))
	for _, r := range raws {
		s := profileSample{labels: map[string]string{}}
		if len(r.values) > 1 {
			s.nanos = int64(r.values[1])
		} else if len(r.values) == 1 {
			s.nanos = int64(r.values[0])
		}
		for _, l := range r.locs {
			for _, f := range locFns[l] {
				s.stack = append(s.stack, str(fnNames[f]))
			}
		}
		for _, kv := range r.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the protobuf fields of one message.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field that arrives either packed or
// one value per field.
func varints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
