package regreuse

// Golden-stats determinism test: every workload at scale 1, under every
// renaming scheme, must produce bit-identical statistics to the recorded
// golden file. This pins the architectural behavior of the simulator so
// performance refactors of the core (wakeup lists, entry pooling, event
// queues) cannot silently change timing or renaming results.
//
// Regenerate after an *intentional* behavioral change with:
//
//	go test -run TestGoldenStats -update-golden .
//
// A regenerated golden requires a sweep.SchemaVersion bump and a new
// goldenSHA256 entry for it (TestGoldenMatchesSchemaVersion): cached sweep
// results are keyed by that version, so without the bump `paper -cache
// auto` would serve results simulated before the change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json (then bump sweep.SchemaVersion)")

const goldenPath = "testdata/golden_stats.json"

// goldenStats is the per-(workload, scheme) fingerprint of a simulation.
// Every field is an exact counter; none is derived or rounded.
type goldenStats struct {
	Cycles           uint64
	Insts            uint64
	MicroOps         uint64 `json:",omitempty"`
	Checksum         uint64
	Branches         uint64
	Mispredicts      uint64
	SquashedInsts    uint64
	StallROB         uint64 `json:",omitempty"`
	StallIQ          uint64 `json:",omitempty"`
	StallNoReg       uint64 `json:",omitempty"`
	PageFaults       uint64 `json:",omitempty"`
	ShadowRecoveries uint64 `json:",omitempty"`
	Allocations      uint64
	Reuses           uint64    `json:",omitempty"`
	ReusesByVer      [4]uint64 `json:",omitempty"`
	Repairs          uint64    `json:",omitempty"`
	// Occupancy sampling fingerprint (reuse scheme only): the number of
	// samples and an FNV-1a hash over every histogram bucket.
	OccupancySamples uint64 `json:",omitempty"`
	OccupancyHash    uint64 `json:",omitempty"`
}

func goldenFromResult(r Result) goldenStats {
	return goldenStats{
		Cycles:           r.Cycles,
		Insts:            r.Insts,
		MicroOps:         r.MicroOps,
		Checksum:         r.Checksum,
		Branches:         r.Pipeline.Branches,
		Mispredicts:      r.Pipeline.Mispredicts,
		SquashedInsts:    r.Pipeline.SquashedInsts,
		StallROB:         r.StallROB,
		StallIQ:          r.StallIQ,
		StallNoReg:       r.StallNoReg,
		PageFaults:       r.PageFaults,
		ShadowRecoveries: r.ShadowRecoveries,
		Allocations:      r.Allocations,
		Reuses:           r.Reuses,
		ReusesByVer:      r.ReusesByVer,
		Repairs:          r.Repairs,
	}
}

// occupancyRun runs the reuse scheme with shadow-bank occupancy sampling
// enabled and fingerprints the sampled histograms.
func occupancyRun(w workloads.Workload) (goldenStats, error) {
	cfg := pipeline.DefaultConfig(pipeline.Reuse)
	cfg.OccupancySampleInterval = 64
	cfg.MaxCycles = 1 << 36
	core := pipeline.New(cfg, w.Program())
	if err := core.Run(); err != nil {
		return goldenStats{}, err
	}
	st := core.Stats()
	h := fnv.New64a()
	var buf [8]byte
	for k := range st.Occupancy {
		for _, n := range st.Occupancy[k] {
			for i := 0; i < 8; i++ {
				buf[i] = byte(n >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return goldenStats{
		Cycles:           st.Cycles,
		Insts:            st.Committed,
		OccupancySamples: st.OccupancySamples,
		OccupancyHash:    h.Sum64(),
	}, nil
}

func collectGolden(t *testing.T) map[string]goldenStats {
	t.Helper()
	got := map[string]goldenStats{}
	schemes := []Scheme{Baseline, Reuse, EarlyRelease}
	for _, w := range workloads.Small() {
		for _, s := range schemes {
			res, err := RunWorkload(w.Name, 1, Config{Scheme: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			got[fmt.Sprintf("%s/%s", w.Name, s)] = goldenFromResult(res)
		}
		occ, err := occupancyRun(w)
		if err != nil {
			t.Fatalf("%s/occupancy: %v", w.Name, err)
		}
		got[w.Name+"/reuse+occupancy"] = occ
	}
	return got
}

// TestObserverDeterminism asserts the observability layer's core contract:
// attaching observers (tracer + pipeline view + metrics, the full built-in
// set) must leave the architectural statistics bit-identical to an
// observer-off run. Observers record; they never steer.
func TestObserverDeterminism(t *testing.T) {
	if testing.Short() {
		// Two full workload sweeps; too slow under -race. See TestGoldenStats.
		t.Skip("short mode: skipping observer-determinism sweep")
	}
	schemes := []Scheme{Baseline, Reuse, EarlyRelease}
	for _, w := range workloads.Small() {
		for _, s := range schemes {
			plain, err := RunWorkload(w.Name, 1, Config{Scheme: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			observed, err := RunWorkload(w.Name, 1, Config{
				Scheme: s,
				Observer: obs.Combine(
					obs.NewTracer(256),
					obs.NewPipeView(io.Discard, 0, 1<<20),
					obs.NewMetrics(1000, io.Discard),
				),
			})
			if err != nil {
				t.Fatalf("%s/%v observed: %v", w.Name, s, err)
			}
			if g, p := goldenFromResult(observed), goldenFromResult(plain); g != p {
				t.Errorf("%s/%v: observer changed architectural stats\nwith:    %+v\nwithout: %+v", w.Name, s, g, p)
			}
		}
	}
}

// TestChromeTraceValid runs a workload with the ring-buffer tracer attached
// (the same path `renamesim -chrome` uses) and checks the exported file is
// well-formed Chrome trace_event JSON: the traceEvents array exists, every
// event has a known phase, and spans carry positive durations.
func TestChromeTraceValid(t *testing.T) {
	tr := obs.NewTracer(4096)
	if _, err := RunWorkload("poly_horner", 1, Config{Scheme: Reuse, Observer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Ph    string         `json:"ph"`
			Ts    *uint64        `json:"ts"`
			Dur   uint64         `json:"dur"`
			Pid   *int           `json:"pid"`
			Tid   *uint64        `json:"tid"`
			Cat   string         `json:"cat"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var spans int
	for _, e := range doc.TraceEvents {
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %q missing ts/pid/tid", e.Name)
		}
		switch e.Ph {
		case "X":
			spans++
			if e.Dur == 0 {
				t.Errorf("span %q at ts %d has zero duration", e.Name, *e.Ts)
			}
			if e.Args["seq"] == nil || e.Args["pc"] == nil {
				t.Errorf("span %q missing seq/pc args", e.Name)
			}
		case "i":
			if e.Scope == "" {
				t.Errorf("instant %q missing scope", e.Name)
			}
		case "M":
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("no instruction spans")
	}
}

// TestGoldenStats asserts that the simulator reproduces the recorded
// statistics exactly — IPC inputs (cycles, instructions), renaming behavior,
// speculation counters, and occupancy sampling.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		// The full golden sweep simulates every pinned workload end to end;
		// under -race that exceeds any reasonable CI budget. make race runs
		// this package with -short, make test still runs the sweep.
		t.Skip("short mode: skipping full golden-stats sweep")
	}
	got := collectGolden(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenStats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("entry count: got %d, want %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from this run", key)
			continue
		}
		if g != w {
			t.Errorf("%s: stats diverged from golden\n got: %+v\nwant: %+v", key, g, w)
		}
	}
}

// goldenSHA256 maps each sweep.SchemaVersion to the sha256 of the golden
// stats file recorded under it.
var goldenSHA256 = map[int]string{
	2: "37363aa9ae44a4485fda168118a7a7570e63a8ad2ac39b2ca298e925c632da3c",
}

// TestGoldenMatchesSchemaVersion ties the golden stats to the sweep cache-key
// version. It fails when the golden is regenerated without a SchemaVersion
// bump, and when the version is bumped without recording the golden it
// stands for.
func TestGoldenMatchesSchemaVersion(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	want, ok := goldenSHA256[sweep.SchemaVersion]
	if !ok {
		t.Fatalf("sweep.SchemaVersion %d has no goldenSHA256 entry; record %s's sha256 %s under it",
			sweep.SchemaVersion, goldenPath, got)
	}
	if got != want {
		t.Fatalf("%s has sha256 %s, but sweep.SchemaVersion %d records %s: "+
			"a regenerated golden needs a SchemaVersion bump (internal/sweep/key.go) and a new goldenSHA256 entry",
			goldenPath, got, sweep.SchemaVersion, want)
	}
}
