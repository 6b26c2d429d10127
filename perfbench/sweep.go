package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// gridSpec is the part of a sweepd submission body the benchmark sends.
// An empty Workloads list means every kernel.
type gridSpec struct {
	Name        string   `json:"name"`
	Workloads   []string `json:"workloads,omitempty"`
	Schemes     []string `json:"schemes"`
	Scale       int      `json:"scale"`
	Sizes       []int    `json:"sizes,omitempty"`
	MaxInsts    uint64   `json:"max_insts,omitempty"`
	FastForward uint64   `json:"fast_forward,omitempty"`
	Warmup      uint64   `json:"warmup,omitempty"`
	Sample      string   `json:"sample,omitempty"`
}

// sweepStatus holds the status fields that both sweep servers (local mode
// and the fabric coordinator) publish.
type sweepStatus struct {
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Done      int    `json:"done"`
	Executed  int    `json:"executed"`
	CacheHits int    `json:"cache_hits"`
}

var schemeNames = []string{"baseline", "reuse", "early"}

// sampledKernels span the properties the schemes react to: single-use FP
// chains, dense FP, pointer chasing, branch-dense integer code, a media
// filter and a cognitive kernel.
var sampledKernels = []string{"poly_horner", "dgemm", "listwalk", "qsortint", "fir", "gmm_score"}

// The fast-forward grid's jobs share one checkpoint per kernel and simulate
// a short detailed region after it; the sampled grid walks each kernel with
// serial interval sampling, building one core per interval. The skip and
// warmup are the repository's documented fast-forward run (paper -fig 10
// -ff 100000 -warmup 5000), which then simulates to HALT; the 5 000
// instruction region is cut to fit a pass into a run. The plan is the
// production sampling plan of BenchmarkSampledThroughput (5% detail).
const (
	gridFF     = 100_000
	gridWarmup = 5_000
	gridDetail = 5_000
	gridSample = "2000:5000:100000"
)

// serviceGrids is the sweep-service pass: a fast-forward grid over every
// kernel, scheme and seed-picked size, and a sampled grid over sampledKernels.
func serviceGrids(sizes []int) []gridSpec {
	return []gridSpec{
		{Name: "ff-grid", Schemes: schemeNames, Scale: 4, Sizes: sizes, FastForward: gridFF, Warmup: gridWarmup, MaxInsts: gridDetail},
		{Name: "sampled-grid", Workloads: sampledKernels, Schemes: schemeNames, Scale: 4, Sizes: sizes[:1], Sample: gridSample},
	}
}

// companionGrids is the same pass cut down to four companion kernels, and
// the sampled grid to dgemm, for the workloads whose primary phase runs in
// process.
func companionGrids(sizes []int) []gridSpec {
	return []gridSpec{
		{Name: "ff-grid", Workloads: companionKernels[:4], Schemes: schemeNames, Scale: 4, Sizes: sizes[:1], FastForward: gridFF, Warmup: gridWarmup, MaxInsts: gridDetail},
		{Name: "sampled-grid", Workloads: companionKernels[1:2], Schemes: schemeNames, Scale: 4, Sizes: sizes[:1], Sample: gridSample},
	}
}

// Status polls pause less than a job of the grid takes, so the increases of
// a sweep's done count date the jobs that finished since the previous
// increase: a warm (cache-hit) job takes 0.1-0.7 ms, a cold one 5 ms or
// more. Cold grids poll more slowly so that the client and sweepd's HTTP
// handler do not compete with the simulation worker for the two cores.
var pollInterval = map[string]time.Duration{
	"cold": time.Millisecond,
	"warm": 50 * time.Microsecond,
}

// fsType names the filesystem holding dir. sweepd fsyncs its manifest on
// every job, so cache-hit latency depends on whether its state sits on a
// memory-backed filesystem; the benchmark keeps the state inside the
// checkout and reports which filesystem that is.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("%#x", st.Type)
}

// sweepd is one running sweepd child and the keep-alive client that talks
// to it.
type sweepd struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	client *http.Client
	ready  time.Duration // from process start until the first 200
}

// startSweepd launches sweepd in local mode with one simulation worker on a
// fresh state directory and returns once it answers GET /sweeps.
func (b *bench) startSweepd() (*sweepd, error) {
	dir, err := os.MkdirTemp(filepath.Join(b.o.out, "state"), "sweepd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.o.sweepd, "-mode", "local", "-addr", "127.0.0.1:0", "-dir", dir, "-workers", "1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	d := &sweepd{cmd: cmd, dir: dir, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
	line, err := bufio.NewReader(out).ReadString('\n')
	i := strings.Index(line, "http://")
	if err != nil || i < 0 {
		d.kill()
		return nil, fmt.Errorf("sweepd did not announce its address (%q): %v", line, err)
	}
	d.base = strings.TrimSpace(line[i:])
	for start := time.Now(); ; {
		resp, err := d.client.Get(d.base + "/sweeps")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("sweepd at %s did not answer: %v", d.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill stops a sweepd that failed to start and waits for it.
func (d *sweepd) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	_ = os.RemoveAll(d.dir)
}

// stopSweepd sends SIGTERM and waits for sweepd to drain: anything but exit
// code 0 is a failed operation. It records the child's peak RSS.
func (b *bench) stopSweepd(d *sweepd) {
	b.attempted++
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		b.fail("signal sweepd: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("no exit within a minute of SIGTERM")
	}
	if err != nil {
		b.fail("sweepd drain: %v", err)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > b.sweepRSS {
		b.sweepRSS = ru.Maxrss
	}
	if err := os.RemoveAll(d.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove sweepd state:", err)
	}
}

// warmResubmits is how many times a pass resubmits its grids warm; a warm
// pass is short, so several per pass keep grid_warm_s from resting on a
// few tens of milliseconds.
const warmResubmits = 8

// sweepPass starts sweepd on a fresh state directory, submits the grids
// cold (every job simulates and writes its result and checkpoints),
// resubmits them warm (every job must be a cache hit), and stops sweepd.
func (b *bench) sweepPass(grids []gridSpec) error {
	d, err := b.startSweepd()
	if err != nil {
		return err
	}
	b.calibrate()
	for _, st := range b.runGrids(d, grids, "cold", &b.cold) {
		b.sweepTot.coldExec += st.Executed
		b.sweepTot.coldHits += st.CacheHits
	}
	for r := 0; r < warmResubmits; r++ {
		for i, w := range b.runGrids(d, grids, "warm", &b.warm) {
			b.sweepTot.warmExec += w.Executed
			b.sweepTot.warmHits += w.CacheHits
			b.sweepTot.warmJobs += w.Jobs
			if w.Executed != 0 || w.CacheHits != w.Jobs {
				b.fail("warm %s: %d of %d jobs were cache hits, %d executed", grids[i].Name, w.CacheHits, w.Jobs, w.Executed)
			}
		}
	}
	b.stopSweepd(d)
	return nil
}

// runGrids submits each grid, waits for it and fetches its results.json,
// one grid after the other so sweepd has one busy worker, and adds the time
// from the first submit until the last results were served to acc as one
// run. The calibration loop runs after each grid, while sweepd is idle, and
// its time is left out.
func (b *bench) runGrids(d *sweepd, grids []gridSpec, phase string, acc *rateAcc) []sweepStatus {
	sts := make([]sweepStatus, len(grids))
	for i, g := range grids {
		t0 := time.Now()
		sts[i] = b.runGrid(d, g, phase)
		acc.add(0, time.Since(t0))
		b.calibrate()
	}
	acc.n++
	return sts
}

// runGrid submits one grid, waits for it and validates its results.json.
func (b *bench) runGrid(d *sweepd, g gridSpec, phase string) sweepStatus {
	body, err := json.Marshal(g)
	if err != nil {
		b.fail("encode %s: %v", g.Name, err)
		return sweepStatus{}
	}
	sp := b.tr.begin("sweep.POST /sweeps", phase, g.Name)
	data, ok := b.call(d, http.MethodPost, "/sweeps", body)
	b.tr.end(sp, 0)
	if !ok {
		return sweepStatus{}
	}
	var sub struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		b.fail("submit %s: bad reply %q", g.Name, data)
		return sweepStatus{}
	}
	st := b.waitSweep(d, sub.ID, phase, g.Name)
	sp = b.tr.begin("sweep.GET results", phase, g.Name)
	res, ok := b.call(d, http.MethodGet, "/sweeps/"+sub.ID+"/results", nil)
	b.tr.end(sp, uint64(len(res)))
	if ok {
		b.checkResults(g, res, sub.Jobs)
	}
	return st
}

// call performs one HTTP request against sweepd: an operation that fails on
// a transport error or a non-2xx status.
func (b *bench) call(d *sweepd, method, path string, body []byte) ([]byte, bool) {
	b.attempted++
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		b.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	resp, err := d.client.Do(req)
	if err != nil {
		b.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.fail("%s %s: read body: %v", method, path, err)
		return nil, false
	}
	if resp.StatusCode/100 != 2 {
		b.fail("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		return data, false
	}
	return data, true
}

// waitSweep polls a sweep's status until it is done and records how long
// each job took, from the increments of the done count.
func (b *bench) waitSweep(d *sweepd, id, phase, grid string) sweepStatus {
	last, done := time.Now(), 0
	deadline := last.Add(2 * time.Minute)
	for {
		sp := b.tr.begin("sweep.GET status", phase, grid)
		data, ok := b.call(d, http.MethodGet, "/sweeps/"+id, nil)
		b.tr.end(sp, 0)
		var st sweepStatus
		if !ok {
			return st
		}
		if err := json.Unmarshal(data, &st); err != nil {
			b.fail("status %s: %v", grid, err)
			return st
		}
		if st.Done > done {
			now := time.Now()
			per := float64(now.Sub(last)) / float64(st.Done-done) / 1e6
			for ; done < st.Done; done++ {
				b.jobMS[phase] = append(b.jobMS[phase], per)
			}
			last = now
		}
		switch {
		case st.State == "done":
			return st
		case st.State == "failed":
			b.fail("%s sweep %s failed", phase, grid)
			return st
		case time.Now().After(deadline):
			b.fail("%s sweep %s still %s after two minutes", phase, grid, st.State)
			return st
		}
		time.Sleep(pollInterval[phase])
	}
}

// checkResults validates a results.json — one result per job, every
// checksum verified — and records each job's statistics and the file's
// sha256 in the digest, so a warm resubmission must serve the same bytes.
// Every job counts as one operation.
//
// A sampled job walks its kernel to HALT, and so does a fast-forward job
// whose kernel halts inside the skip; their checksum_ok is a real check.
// Every other fast-forward job stops after its detailed region, before
// HALT, and sweepd reports checksum_ok true for it whatever its state; it
// is checked through its ff_insts, which must equal the grid's skip, and
// through the digest: its statistics must repeat exactly in every pass.
func (b *bench) checkResults(g gridSpec, data []byte, jobs int) {
	var rr struct {
		Jobs []struct {
			Workload, Scheme string
			Size             int
		} `json:"jobs"`
		Results []struct {
			Cycles     uint64 `json:"cycles"`
			Insts      uint64 `json:"instructions"`
			Reuses     uint64 `json:"reuses"`
			FFInsts    uint64 `json:"ff_insts"`
			ChecksumOK bool   `json:"checksum_ok"`
		} `json:"results"`
	}
	grid := g.Name
	b.attempted += int64(jobs)
	if err := json.Unmarshal(data, &rr); err != nil || len(rr.Results) != jobs || len(rr.Jobs) != jobs {
		b.failed += int64(jobs)
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s results: %d of %d jobs (%v)\n", grid, len(rr.Results), jobs, err)
		return
	}
	for i, r := range rr.Results {
		j := rr.Jobs[i]
		if !r.ChecksumOK {
			b.fail("%s %s/%s@%d: checksum_ok false", grid, j.Workload, j.Scheme, j.Size)
		}
		halted := r.FFInsts < g.FastForward && r.Insts == 0 // inside the skip
		if g.FastForward > 0 && r.FFInsts != g.FastForward && !halted {
			b.fail("%s %s/%s@%d: fast-forwarded %d instructions, want %d", grid, j.Workload, j.Scheme, j.Size, r.FFInsts, g.FastForward)
		}
		b.record(fmt.Sprintf("sweep %s %s/%s@%d", grid, j.Workload, j.Scheme, j.Size),
			fmt.Sprintf("cycles=%d insts=%d reuses=%d", r.Cycles, r.Insts, r.Reuses))
	}
	sum := sha256.Sum256(data)
	b.record("results.json "+grid, hex.EncodeToString(sum[:]))
}
