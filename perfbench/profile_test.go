package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building profile.proto fixtures.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

// fixtureProfile encodes a gzipped CPU profile: one function per location,
// and per sample a leaf-first stack of function names, a scheme label and a
// CPU time. Location ids are written packed and unpacked alternately, as
// encoders may do either.
func fixtureProfile(t *testing.T, samples []profileSample) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	fnID := map[string]uint64{}
	prof := &pb{}
	for i, s := range samples {
		var locs []uint64
		for _, fn := range s.stack {
			id, ok := fnID[fn]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[fn] = id
				prof.bytes(5, (&pb{}).varint(1, id).varint(2, str(fn)).b)
				line := (&pb{}).varint(1, id).varint(2, 1).b
				prof.bytes(4, (&pb{}).varint(1, id).bytes(4, line).b)
			}
			locs = append(locs, id)
		}
		smp := &pb{}
		if i%2 == 0 {
			smp.packed(1, locs...)
		} else {
			for _, l := range locs {
				smp.varint(1, l)
			}
		}
		smp.packed(2, 1, uint64(s.nanos))
		for k, v := range s.labels {
			smp.bytes(3, (&pb{}).varint(1, str(k)).varint(2, str(v)).b)
		}
		prof.bytes(2, smp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStageFold(t *testing.T) {
	const (
		core     = "repro/internal/pipeline.(*Core)."
		step     = core + "stepReuse"
		dispatch = core + "renameDispatchReuse"
	)
	// Every stack is rooted in the runtime, which must not claim it.
	stack := func(fns ...string) []string {
		return append(fns, core+"RunTo", "runtime/pprof.Do", "runtime.goexit")
	}
	label := func(s string) map[string]string { return map[string]string{"scheme": s} }
	samples := []profileSample{
		// A helper below a stage's entry point counts toward that stage.
		{stack: stack(core+"robIdxAt", core+"commit", step), labels: label("reuse"), nanos: 40},
		// A package rule wins at the leaf.
		{stack: stack("repro/internal/rename.(*ReuseRenamer).RenameDest", dispatch, step), labels: label("reuse"), nanos: 30},
		{stack: []string{"runtime.mallocgc", "repro/internal/pipeline.New", "runtime.goexit"}, labels: label("reuse"), nanos: 10},
		// The loop's own time, and a function the map does not know — a
		// dispatch loop renamed by a refactor — land in "other".
		{stack: stack(step), labels: label("reuse"), nanos: 5},
		{stack: stack(core+"renameDispatch", step), labels: label("reuse"), nanos: 15},
		{stack: stack(core+"fetch", core+"stepBaseline"), labels: label("baseline"), nanos: 100},
		// Unlabelled samples (GC workers) belong to no scheme.
		{stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, labels: map[string]string{}, nanos: 1000},
	}
	parsed, err := parseProfile(fixtureProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(samples) || len(parsed[0].stack) != 6 || parsed[0].nanos != 40 {
		t.Fatalf("parsed %d samples, first %+v", len(parsed), parsed[0])
	}
	rules, err := parseStageMap(stageMap)
	if err != nil {
		t.Fatal(err)
	}
	got := stageShares(parsed, rules, "scheme")
	want := map[string]map[string]float64{
		"reuse":    {"commit": 40, "renamer": 30, "runtime": 10, "other": 20},
		"baseline": {"fetch": 100},
	}
	if len(got) != len(want) {
		t.Fatalf("labels %v, want %v", got, want)
	}
	for sch, stages := range want {
		if len(got[sch]) != len(stages) {
			t.Errorf("%s shares = %v, want %v", sch, got[sch], stages)
		}
		for st, pct := range stages {
			if math.Abs(got[sch][st]-pct) > 1e-9 {
				t.Errorf("%s %s share = %v, want %v", sch, st, got[sch][st], pct)
			}
		}
	}
}

func TestStageMap(t *testing.T) {
	rules, err := parseStageMap(stageMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("empty stage map")
	}
	for _, bad := range []string{"nostage repro/internal/x.", "other repro/internal/x.", "fetch"} {
		if _, err := parseStageMap(bad); err == nil {
			t.Errorf("parseStageMap(%q) succeeded", bad)
		}
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed")
	}
}
