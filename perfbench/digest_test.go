package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/emu"
	"repro/internal/prog"
)

// miniMix sets up a two-kernel workload: a pointer chase and a single-use FP
// chain, simulated and run functionally at test scale.
func miniMix(t *testing.T, seed int64) (*bench, kernels) {
	t.Helper()
	wl := workload{primary: detailedPhase, detailed: []string{"listwalk", "poly_horner"},
		functional: []string{"listwalk", "poly_horner"}, funcScale: 1, grids: companionGrids}
	b := newBench(options{workload: "mini-mix", seed: seed, out: t.TempDir()}, wl)
	ks, err := b.setup(false)
	if err != nil {
		t.Fatal(err)
	}
	b.assignSizes(ks.detailed)
	return b, ks
}

func TestDigestStableMiniMix(t *testing.T) {
	a, aks := miniMix(t, 7)
	a.detailedPass(aks.detailed, roundRNG(7, 0))
	a.functionalPass(aks.functional, roundRNG(7, 0))

	// Same seed, other round orders, run twice: every repeated job must
	// reproduce its statistics, and the digest must not depend on order.
	b, bks := miniMix(t, 7)
	for r := 1; r <= 2; r++ {
		b.detailedPass(bks.detailed, roundRNG(7, r))
		b.functionalPass(bks.functional, roundRNG(7, r))
	}
	const jobs = int64(2*len(schemes) + 2*2) // simulations, then fast-forward and analysis runs
	if a.failed != 0 || b.failed != 0 || a.attempted != jobs || b.attempted != 2*jobs {
		t.Fatalf("attempted %d and %d, failed %d and %d", a.attempted, b.attempted, a.failed, b.failed)
	}
	if int64(len(a.digest)) != jobs {
		t.Fatalf("digest has %d entries, want %d", len(a.digest), jobs)
	}
	if da, db := digestHex(a.digest), digestHex(b.digest); da != db {
		t.Fatalf("digest differs between runs of one seed: %s vs %s", da, db)
	}
	for s := range schemes {
		if a.exact[s] != b.exact[s] || a.exact[s].cycles == 0 {
			t.Errorf("scheme %d exact stats %+v vs %+v", s, a.exact[s], b.exact[s])
		}
		if ipcA, ipcB := float64(a.det[s].n)/float64(a.cycles[s]), float64(b.det[s].n)/float64(b.cycles[s]); ipcA != ipcB {
			t.Errorf("scheme %d ipc %v vs %v", s, ipcA, ipcB)
		}
	}

	// A changed statistic for a recorded job is a failed operation.
	for key := range a.digest {
		a.record(key, "cycles=1")
		break
	}
	if a.failed != 1 {
		t.Errorf("a changed statistic counted %d failures, want 1", a.failed)
	}
}

func TestReplayRenamesEveryInstruction(t *testing.T) {
	b, ks := miniMix(t, 3)
	k := ks.detailed[1]
	var rec rowRecorder
	if _, err := emu.New(k.p).RunToHaltBatch(1<<32, &rec); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, row := range rec.rows {
		if k.p.UOps().Flags[row]&prog.UFNopOrHalt == 0 {
			want++
		}
	}
	for _, sch := range schemes {
		n, err := replay(k.p.UOps(), rec.rows, equalAreaConfig(k.w.Name, sch, 48))
		if err != nil || n != want {
			t.Errorf("%s: renamed %d of %d (%v)", sch, n, want, err)
		}
	}
	rates := b.replayRenamers(ks.detailed, roundRNG(3, 0))
	for s, r := range rates {
		if r <= 0 || b.failed != 0 {
			t.Errorf("scheme %d rename rate %v, %d failures", s, r, b.failed)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs())
	check("per_layer", doc.PerLayer, perLayerDefs())
}
