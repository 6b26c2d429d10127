package sweep

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/workloads"
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

// TestCachedBootSharedSafely: the six jobs of one fast-forward site, every
// scheme at two sizes, boot concurrently from the one BootState the store
// keeps for it, a scale-4 hashjoin whose memory image spans many pages.
// Each reports a hit that ran no instruction. The kept state is left as
// the jobs found it, equal to a freshly prepared one, and every result
// equals the same job run with no store, which fast-forwards from reset on
// its own. Under the race detector this also shows the jobs only read it.
func TestCachedBootSharedSafely(t *testing.T) {
	const skip, warmup = 20000, 2000
	spec := Spec{
		Name:        "shared-boot",
		Workloads:   []string{"hashjoin"},
		Schemes:     []string{"baseline", "reuse", "early"},
		Scale:       4,
		Sizes:       []int{56, 96},
		FastForward: skip,
		Warmup:      warmup,
		MaxInsts:    2000,
	}
	jobs, _, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloads.ByName("hashjoin", 4)
	p := w.Program()
	d := ckpt.ProgramDigest(p)
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kept, how, err := ckpt.PrepareServed(store, p, d, skip, warmup)
	if err != nil || how != ckpt.Built {
		t.Fatalf("first prepare: %v, %v; want a built boot state", how, err)
	}
	if n := len(kept.Boot.Mem.PageNumbers()); n < 8 {
		t.Fatalf("boot memory spans %d pages, want a multi-page image", n)
	}

	results := make([]JobResult, len(jobs))
	uses := make([]Usage, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], uses[i], errs[i] = Execute(j, store, 1)
		}()
	}
	wg.Wait()

	fresh, _, err := ckpt.Prepare(nil, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if !kept.Boot.Equal(fresh.Boot) || !slices.Equal(kept.Warmup, fresh.Warmup) || kept.FFInsts != fresh.FFInsts {
		t.Fatal("the shared boot state changed while its jobs ran")
	}
	if again, how, err := ckpt.PrepareServed(store, p, d, skip, warmup); err != nil || how != ckpt.Cached || again != kept {
		t.Fatalf("store served %v (%v), want the kept boot state from memory", how, err)
	}
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if uses[i] != (Usage{Ckpt: "hit"}) {
			t.Errorf("job %d used the store as %+v, want a hit that ran no instruction", i, uses[i])
		}
		want, _, err := Execute(j, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("job %d (%s at %d) booted from the shared state:\n got %+v\nwant %+v", i, j.Scheme, j.Size, results[i], want)
		}
	}
}
