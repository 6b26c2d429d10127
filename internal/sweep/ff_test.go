package sweep

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/ckpt"
)

// gatedStore is a blob.Store that holds its first n Gets until all n have
// arrived, so n concurrent jobs all miss the checkpoint before any of them
// can save it, and counts the checkpoints put.
type gatedStore struct {
	blob.Store
	n    int64
	gate sync.WaitGroup
	gets atomic.Int64
	mu   sync.Mutex
	puts map[string]int
}

func (g *gatedStore) Get(name string) ([]byte, bool, error) {
	if g.gets.Add(1) <= g.n {
		g.gate.Done()
		g.gate.Wait()
	}
	return g.Store.Get(name)
}

func (g *gatedStore) Put(name string, data []byte) error {
	if strings.HasSuffix(name, ".ckpt") {
		g.mu.Lock()
		g.puts[name]++
		g.mu.Unlock()
	}
	return g.Store.Put(name, data)
}

// TestFastForwardSharesCheckpoint is the acceptance scenario: three
// concurrent jobs of one workload with a fast-forward prefix, all missing
// the store at once, must do the functional fast-forward work once —
// exactly one checkpoint written for the one site — and the detailed
// results must be consistent with each other.
func TestFastForwardSharesCheckpoint(t *testing.T) {
	dir, err := blob.NewDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedStore{Store: dir, n: 3, puts: map[string]int{}}
	gated.gate.Add(3)
	spec := Spec{
		Name:        "ff-share",
		Workloads:   []string{"dgemm"},
		Schemes:     []string{"baseline", "reuse", "early"},
		Scale:       1,
		FastForward: 3000,
		Warmup:      500,
	}
	res, err := Run(context.Background(), spec, Options{Ckpt: ckpt.NewStoreWith(gated), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Executed != 3 {
		t.Fatalf("stats = %+v, want 3 executed", res.Stats)
	}
	if len(gated.puts) != 1 {
		t.Fatalf("checkpoint puts = %v, want exactly one site", gated.puts)
	}
	for name, n := range gated.puts {
		if n != 1 {
			t.Fatalf("%s put %d times, want once (shared fast-forward)", name, n)
		}
	}
	for i, r := range res.Results {
		if !r.ChecksumOK {
			t.Fatalf("job %d failed checksum", i)
		}
		if r.FFInsts != 3000 {
			t.Fatalf("job %d FFInsts = %d, want 3000", i, r.FFInsts)
		}
		if r.Cycles == 0 || r.Insts == 0 {
			t.Fatalf("job %d has no detailed region: %+v", i, r)
		}
	}
}

// TestFastForwardMatchesFullRun: with fast-forward the detailed region's
// committed instruction count must be exactly the full run's minus the
// prefix, and the run must still checksum — the bit-exactness of the suffix
// itself is pinned by pipeline.TestCheckpointResumeEquivalence.
func TestFastForwardMatchesFullRun(t *testing.T) {
	full, _, err := Execute(Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff, _, err := Execute(Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1, FastForward: 5000, Warmup: 1000}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Insts != full.Insts-5000 {
		t.Fatalf("detailed insts %d, want %d-5000", ff.Insts, full.Insts)
	}
	if !ff.ChecksumOK || ff.FFInsts != 5000 {
		t.Fatalf("ff result: %+v", ff)
	}
	if ff.Cycles >= full.Cycles {
		t.Fatalf("fast-forward did not skip cycles: %d >= %d", ff.Cycles, full.Cycles)
	}
}

// TestSampledJob: a sampled job produces a bounded-error IPC estimate, the
// functional walker validates the checksum, and the estimate lands near the
// full-fidelity IPC.
func TestSampledJob(t *testing.T) {
	j := Job{Workload: "dgemm", Scheme: "reuse", Scale: 1, Sample: "200:500:5000"}
	r, _, err := Execute(j, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled == nil || r.Sampled.Samples == 0 {
		t.Fatalf("no samples: %+v", r)
	}
	if !r.ChecksumOK {
		t.Fatal("sampled run failed checksum")
	}
	if r.Sampled.Coverage <= 0 || r.Sampled.Coverage >= 1 {
		t.Fatalf("coverage %v out of range", r.Sampled.Coverage)
	}

	full, _, err := Execute(Job{Workload: "dgemm", Scheme: "reuse", Scale: 1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate should be in the right neighborhood; 3 sigma plus a 15%
	// tolerance band guards against flakiness without letting the estimate
	// be garbage.
	lo := r.Sampled.IPCMean - 3*r.Sampled.IPCStdErr - 0.15*full.IPC
	hi := r.Sampled.IPCMean + 3*r.Sampled.IPCStdErr + 0.15*full.IPC
	if full.IPC < lo || full.IPC > hi {
		t.Fatalf("full IPC %.3f outside sampled band [%.3f, %.3f] (est %.3f ± %.3f, %d samples)",
			full.IPC, lo, hi, r.Sampled.IPCMean, r.Sampled.IPCStdErr, r.Sampled.Samples)
	}
}

// TestSampledSpecThroughEngine runs a sampled spec end to end through the
// engine and checks results are cacheable (second run = pure cache hits).
func TestSampledSpecThroughEngine(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:      "sampled",
		Workloads: []string{"poly_horner"},
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sample:    "200:500:4000",
	}
	cold, err := Run(context.Background(), spec, Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed != 2 {
		t.Fatalf("cold stats %+v", cold.Stats)
	}
	warm, err := Run(context.Background(), spec, Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != 2 || warm.Stats.Executed != 0 {
		t.Fatalf("warm stats %+v", warm.Stats)
	}
	for i := range cold.Results {
		a, b := cold.Results[i], warm.Results[i]
		if a.Sampled == nil || b.Sampled == nil || *a.Sampled != *b.Sampled {
			t.Fatalf("sampled summary %d differs across cache: %+v vs %+v", i, a.Sampled, b.Sampled)
		}
	}
}
