package ckpt

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/blob"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/workloads"
)

func assemble(t testing.TB, name string, scale int) *prog.Program {
	t.Helper()
	w, ok := workloads.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestProgramDigestSensitivity(t *testing.T) {
	base := assemble(t, "poly_horner", 1)
	same := assemble(t, "poly_horner", 1)
	if ProgramDigest(base) != ProgramDigest(same) {
		t.Fatal("identical programs must digest equal")
	}
	if ProgramDigest(base) == ProgramDigest(assemble(t, "poly_horner", 2)) {
		t.Fatal("different scale must digest differently")
	}
	if ProgramDigest(base) == ProgramDigest(assemble(t, "fir", 1)) {
		t.Fatal("different workloads must digest differently")
	}

	// A single changed data byte must flip the digest.
	a, err := asm.Assemble("movi x1, #1\nhalt\n.data\ndata: .word 7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Assemble("movi x1, #1\nhalt\n.data\ndata: .word 8")
	if err != nil {
		t.Fatal(err)
	}
	if ProgramDigest(a) == ProgramDigest(b) {
		t.Fatal("changed data byte must flip digest")
	}
}

// TestProgramDigestGolden pins ProgramDigest to values computed before
// program data moved from a per-byte map to address-ordered runs. Stored
// checkpoints are keyed by this digest, so a change here orphans every
// checkpoint store on disk. The cases cover multi-page data at two scales,
// a kernel with no data, and a hand-written program whose data falls into
// three runs.
func TestProgramDigestGolden(t *testing.T) {
	golden := []struct {
		name  string
		scale int
		hex   string
	}{
		{"dgemm", 1, "2ed9e4b5679ef1a85f2ff1aec5e19fff6738fdf5c1562098f694f9f78832410a"},
		{"dgemm", 4, "c48393df4c37b8ca43db2cd275bf37c2e679e1cc8cceec571eef7a0bb4d105bd"},
		{"listwalk", 1, "4bb76ecbff097ba55e1685d356b14062b5f905b1d1f5647611552f39867c43b3"},
		{"listwalk", 4, "b56e8dcbc0a929a1a8daa9fd6d430e02ee97e981f9b975b9a5852e4e4dc07c9a"},
		{"montecarlo", 1, "8aa6c94367e642c0c45fb9a2ecba2350cda2fa3df622fe49ca62155f670ac681"},
		{"montecarlo", 4, "ef7b3ca65ec660911393ff275f6123867a4afc48ede43245962175b8966386d9"},
	}
	for _, g := range golden {
		if got := ProgramDigest(assemble(t, g.name, g.scale)).String(); got != g.hex {
			t.Errorf("%s scale %d: digest %s, want %s", g.name, g.scale, got, g.hex)
		}
	}
	p, err := asm.Assemble("halt\n.data\na: .word 1, 2\nb: .space 8\nc: .double 0.5\n.align 64\nd: .word 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.DataSegments()); n != 3 {
		t.Fatalf("hand-written program has %d data runs, want 3", n)
	}
	const want = "d87edcf9556249e838351cd246f4023266c8e2cf31f95b36d3a907b37c875485"
	if got := ProgramDigest(p).String(); got != want {
		t.Errorf("three-run program: digest %s, want %s", got, want)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	want, err := FastForward(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(d, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(d, 2000)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(want) {
		t.Fatalf("round trip not faithful:\nwant %v\n got %v", want, got)
	}

	// Replaying from the loaded snapshot finishes identically to an
	// uninterrupted functional run.
	ref := emu.New(p)
	if _, err := ref.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	resumed := emu.NewFromSnapshot(p, got)
	if _, err := resumed.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	if !ref.Snapshot().Equal(resumed.Snapshot()) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

func TestStoreMisses(t *testing.T) {
	p := assemble(t, "poly_horner", 1)
	d := ProgramDigest(p)
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := st.Load(d, 500); ok || err != nil {
		t.Fatalf("absent file: ok=%v err=%v", ok, err)
	}

	sn, err := FastForward(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(d, sn); err != nil {
		t.Fatal(err)
	}

	// Wrong instruction count and wrong digest are misses.
	if _, ok, _ := st.Load(d, 501); ok {
		t.Fatal("wrong instcount must miss")
	}
	var other Digest
	other[0] = 0xFF
	if _, ok, _ := st.Load(other, 500); ok {
		t.Fatal("wrong digest must miss")
	}

	// Corruption anywhere in the file is a miss, not an error or a wrong
	// snapshot.
	path := filepath.Join(dir, st.Key(d, 500))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 12, 60, len(data) / 2, len(data) - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Load(d, 500); ok || err != nil {
			t.Fatalf("corrupt byte at %d: ok=%v err=%v", off, ok, err)
		}
	}
	// Truncation too.
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Load(d, 500); ok || err != nil {
		t.Fatalf("truncated: ok=%v err=%v", ok, err)
	}
}

func TestPrepare(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const skip, warmup = 3000, 1000

	bs, hit, err := Prepare(st, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Prepare must miss")
	}
	if bs.Boot.InstCount != skip {
		t.Fatalf("boot at inst %d, want %d", bs.Boot.InstCount, skip)
	}
	if len(bs.Warmup) != warmup {
		t.Fatalf("warmup trace has %d commits, want %d", len(bs.Warmup), warmup)
	}
	if first := bs.Warmup[0].Seq; first != skip-warmup {
		t.Fatalf("warmup starts at seq %d, want %d", first, skip-warmup)
	}
	if last := bs.Warmup[warmup-1].NextPC; last != bs.Boot.PC {
		t.Fatalf("warmup trace ends at pc %#x, boot pc %#x", last, bs.Boot.PC)
	}

	bs2, hit2, err := Prepare(st, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second Prepare must hit the stored checkpoint")
	}
	if !bs2.Boot.Equal(bs.Boot) {
		t.Fatal("hit and miss paths produced different boot snapshots")
	}

	// Oversized warmup clamps to the start of the program.
	bs3, _, err := Prepare(nil, p, d, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs3.Warmup) != 100 || bs3.Boot.InstCount != 100 {
		t.Fatalf("clamped warmup: %d commits, boot at %d", len(bs3.Warmup), bs3.Boot.InstCount)
	}
}

// TestPrepareServedKeepsLastSite: a store serves a site from memory while
// it is the last one it served, and loads the saved checkpoint once another
// site has taken its place; a second store over the same directory starts
// with nothing kept and loads the same boot state.
func TestPrepareServedKeepsLastSite(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(st *Store, skip uint64, want Served) *BootState {
		t.Helper()
		bs, how, err := PrepareServed(st, p, d, skip, 500)
		if err != nil {
			t.Fatal(err)
		}
		if how != want {
			t.Fatalf("site %d served %v, want %v", skip, how, want)
		}
		return bs
	}

	built := serve(st, 3000, Built)
	if serve(st, 3000, Cached) != built {
		t.Fatal("a cached hit must return the kept boot state")
	}
	serve(st, 4000, Built) // takes 3000's place
	serve(st, 3000, Loaded)
	serve(st, 3000, Cached)
	serve(st, 4000, Loaded)

	other, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded := serve(other, 3000, Loaded)
	if !loaded.Boot.Equal(built.Boot) || !slices.Equal(loaded.Warmup, built.Warmup) || loaded.FFInsts != built.FFInsts {
		t.Fatal("the loaded boot state differs from the built one")
	}
}

// gatedStore is a blob.Store that holds its first n Gets until all n have
// arrived, so n concurrent callers all miss before any of them can save,
// and counts its Puts.
type gatedStore struct {
	blob.Store
	n    int64
	gate sync.WaitGroup
	gets atomic.Int64
	puts atomic.Int64
}

func newGatedStore(back blob.Store, n int) *gatedStore {
	g := &gatedStore{Store: back, n: int64(n)}
	g.gate.Add(n)
	return g
}

func (g *gatedStore) Get(name string) ([]byte, bool, error) {
	if g.gets.Add(1) <= g.n {
		g.gate.Done()
		g.gate.Wait()
	}
	return g.Store.Get(name)
}

func (g *gatedStore) Put(name string, data []byte) error {
	g.puts.Add(1)
	return g.Store.Put(name, data)
}

// TestPrepareSingleFlight: concurrent callers that all miss one site
// fast-forward it once — one miss that saves the checkpoint, every other
// caller waits and loads it.
func TestPrepareSingleFlight(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	dir, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	gated := newGatedStore(dir, callers)
	st := NewStoreWith(gated)

	var (
		wg    sync.WaitGroup
		hits  atomic.Int64
		boots [callers]*emu.Snapshot
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs, hit, err := Prepare(st, p, d, 3000, 500)
			if err != nil {
				t.Error(err)
				return
			}
			if hit {
				hits.Add(1)
			}
			boots[i] = bs.Boot
		}()
	}
	wg.Wait()
	if got := hits.Load(); got != callers-1 {
		t.Errorf("%d hits and %d misses, want %d hits and 1 miss", got, callers-got, callers-1)
	}
	if got := gated.puts.Load(); got != 1 {
		t.Errorf("%d checkpoint puts, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if boots[i] == nil || !boots[i].Equal(boots[0]) {
			t.Fatalf("caller %d booted from a different snapshot", i)
		}
	}
}

// missSignal is a blob.Store that sends the name of each Get that found
// nothing on missed.
type missSignal struct {
	blob.Store
	missed chan string
}

func (m missSignal) Get(name string) ([]byte, bool, error) {
	data, ok, err := m.Store.Get(name)
	if !ok && err == nil {
		m.missed <- name
	}
	return data, ok, err
}

// TestPrepareWaiterLoadsSavedCheckpoint: callers that missed a site and
// waited on its lock while the store came to keep another site's boot
// state load the checkpoint the lock's holder saved: the first to take the
// lock loads it and keeps its state, which serves the rest. None
// fast-forwards again, the site is saved once, and each boots the state a
// fast-forward from reset builds. The test holds the site's lock itself,
// as a fast-forward in progress would, and serves the other site before
// releasing it.
func TestPrepareWaiterLoadsSavedCheckpoint(t *testing.T) {
	const skip, warmup, other = 3500, 500, 4500
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	dir, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	missed := make(chan string, 4*waiters)
	gated := newGatedStore(missSignal{dir, missed}, waiters)
	st := NewStoreWith(gated)

	mu, _ := siteLocks.LoadOrStore(site{d, skip - warmup}, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	var (
		wg     sync.WaitGroup
		served [waiters]Served
		boots  [waiters]*BootState
	)
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs, how, err := PrepareServed(st, p, d, skip, warmup)
			if err != nil {
				t.Error(err)
				return
			}
			served[i], boots[i] = how, bs
		}()
	}
	for range waiters {
		<-missed
	}
	// Every waiter has missed the saved checkpoint and is bound for the
	// lock. Save the site as its holder would, then serve another site.
	if _, err := fastForward(st, p, d, skip-warmup); err != nil {
		t.Fatal(err)
	}
	if _, how, err := PrepareServed(st, p, d, other, warmup); err != nil || how != Built {
		t.Fatalf("other site: %v, %v; want built", how, err)
	}
	mu.(*sync.Mutex).Unlock()
	wg.Wait()

	want, _, err := PrepareServed(nil, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	var count [Cached + 1]int
	for _, how := range served {
		count[how]++
	}
	if count[Loaded] != 1 || count[Cached] != waiters-1 {
		t.Errorf("waiters were served %v, want one loaded from the saved checkpoint and the rest cached", served)
	}
	for i, bs := range boots {
		if bs == nil || !bs.Boot.Equal(want.Boot) || !slices.Equal(bs.Warmup, want.Warmup) || bs.FFInsts != want.FFInsts {
			t.Fatalf("waiter %d booted from a different state", i)
		}
	}
	if got := gated.puts.Load(); got != 2 {
		t.Errorf("%d checkpoint puts, want 2: one for each site", got)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("1000:2000:50000")
	if err != nil {
		t.Fatal(err)
	}
	if p != (Plan{Warmup: 1000, Detail: 2000, Interval: 50000}) {
		t.Fatalf("parsed %+v", p)
	}
	// "1000:2000:3500" leaves room for warmup+detail but not for the
	// detailed warmup too (interval must cover 2*warmup+detail).
	for _, bad := range []string{"", "1:2", "a:b:c", "1000:0:50000", "1000:2000:2500", "1000:2000:3500"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// TestSampleFunctional drives a serial SampleN with a detail runner that is itself the
// functional emulator reporting one cycle per instruction. The estimate must
// come out at exactly IPC 1 with zero standard error, the instruction
// accounting must cover the whole program, and the returned final snapshot
// must match an uninterrupted run (checksum included).
func TestSampleFunctional(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	w, _ := workloads.ByName("dgemm", 1)

	var intervals int
	run := func(bs *BootState, warmup, detail uint64) (IntervalStats, error) {
		intervals++
		s := emu.NewFromSnapshot(p, bs.Boot)
		if _, err := s.StepN(warmup); err != nil {
			return IntervalStats{}, err
		}
		n, err := s.StepN(detail)
		if err != nil {
			return IntervalStats{}, err
		}
		return IntervalStats{Cycles: n, Insts: n}, nil
	}

	plan := Plan{Warmup: 200, Detail: 500, Interval: 5000}
	est, final, err := SampleN(p, plan, 0, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples == 0 || est.Samples != intervals {
		t.Fatalf("samples=%d intervals=%d", est.Samples, intervals)
	}
	if est.IPCMean != 1 || est.IPCStdErr != 0 {
		t.Fatalf("IPC %v ± %v, want exactly 1 ± 0", est.IPCMean, est.IPCStdErr)
	}
	if est.DetailInsts+est.FFInsts != est.TotalInsts {
		t.Fatalf("accounting: %d detail + %d ff != %d total",
			est.DetailInsts, est.FFInsts, est.TotalInsts)
	}
	if cov := est.CoverageRatio(); cov <= 0 || cov >= 0.5 {
		t.Fatalf("coverage %v outside (0, 0.5)", cov)
	}

	ref := emu.New(p)
	if _, err := ref.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	if !final.Equal(ref.Snapshot()) {
		t.Fatal("sampled walker's final state diverged from uninterrupted run")
	}
	if final.X[workloads.CheckReg] != w.Want {
		t.Fatalf("checksum %#x, want %#x", final.X[workloads.CheckReg], w.Want)
	}
}

// TestSampleNDeterminism runs the same sampled program with 1, 2, 3 and 8
// workers. The runner reports interval-dependent statistics (so any merge
// reordering would change the estimate) and the resulting Estimates must be
// bit-identical: interval results are folded in interval-index order no
// matter which worker finishes first.
func TestSampleNDeterminism(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	plan := Plan{Warmup: 200, Detail: 500, Interval: 4000}

	sampleWith := func(workers int) *Estimate {
		run := func(bs *BootState, warmup, detail uint64) (IntervalStats, error) {
			s := emu.NewFromSnapshot(p, bs.Boot)
			if _, err := s.StepN(warmup); err != nil {
				return IntervalStats{}, err
			}
			n, err := s.StepN(detail)
			if err != nil {
				return IntervalStats{}, err
			}
			// Cycles depend on the interval's position, so IPC differs
			// per interval and the mean/stderr are order-sensitive
			// unless merging is index-ordered.
			return IntervalStats{
				Cycles:    n + bs.Boot.InstCount%977,
				Insts:     n,
				ReuseHits: bs.Boot.InstCount % 131,
			}, nil
		}
		est, final, err := SampleN(p, plan, 0, workers, run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if final == nil || !final.Halted {
			t.Fatalf("workers=%d: walker did not finish", workers)
		}
		return est
	}

	want := sampleWith(1)
	if want.Samples < 4 {
		t.Fatalf("want several intervals, got %d", want.Samples)
	}
	for _, workers := range []int{2, 3, 8} {
		if got := sampleWith(workers); *got != *want {
			t.Errorf("workers=%d: estimate %+v != serial %+v", workers, got, want)
		}
	}
}
