# Developer/CI entry points. `make ci` is the gate future changes run:
# build + full tests (including the golden-stats determinism test, the
# zero-allocation test and the paper-claims test), vet, renamelint and its
# schema-golden gate, the race detector, the checkpoint gates, the CLI
# smoke flows, the throughput gate, the committed-results regeneration
# (results-check), the sweep-fabric smoke, and the perfbench module's vet
# and tests.

GO ?= go

.PHONY: test vet lint lintsmoke race smoke benchsmoke results-check fabricsmoke perfbench-test ci ckpt-tests bench benchpair

test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs renamelint (internal/lint): the determinism, hotpath, tagpair,
# obsguard, guardedby, snapshot and schemalock analyzers over every
# package, commands included. Zero findings is a hard gate; see DESIGN.md
# §13 and §18 for the directives that scope and suppress it.
lint:
	$(GO) run ./cmd/renamelint ./...

# lintsmoke is the schema-golden no-drift gate: regenerate every
# //repro:schema golden into .bench_build/lintsmoke and require it to be
# byte-identical to the committed schemas/. A shape change that skipped
# `renamelint -update-schemas` — or a hand-edited golden — fails here, so
# the goldens on main can never go stale.
lintsmoke:
	@set -e; \
	d=.bench_build/lintsmoke; rm -rf $$d; mkdir -p $$d; \
	$(GO) run ./cmd/renamelint -update-schemas -schema-dir $$d/schemas ./... > /dev/null; \
	diff -ru schemas $$d/schemas; \
	rm -rf $$d
	@echo lintsmoke OK

# race covers the root package and commands too; -short skips the full
# multi-workload sweeps there (race-instrumented, they blow the CI budget —
# the un-instrumented sweeps still run in `make test`).
race:
	$(GO) test -race -short . ./cmd/...
	$(GO) test -race ./internal/...

# ckpt-tests names the fast-forward correctness gates explicitly: the
# checkpoint store round-trip, the program-digest golden values that keep
# checkpoint stores on disk valid, the snapshot round-trip, and the
# strongest check — checkpoint-booted runs reproduce an uninterrupted run's
# committed stream and final architectural state bit-exactly.
ckpt-tests:
	$(GO) test -run 'TestStoreRoundTrip|TestProgramDigestGolden|TestPrepare|TestSampleFunctional' ./internal/ckpt/
	$(GO) test -run 'TestSnapshotRestoreRoundTrip|TestStepNMatchesStep' ./internal/emu/
	$(GO) test -run 'TestCheckpointResumeEquivalence' ./internal/pipeline/

# smoke exercises the command-line surfaces end-to-end over a tiny
# workload: renamelint's JSON findings artifact, renamesim's pipeline view,
# its Chrome trace export and its JSON run artifact, full and sampled (all
# schema-checked with ckjson), metrics CSV streaming, one paper table with and without a
# CPU profile, and the sweepd local-mode flow — a fabric coordinator with
# in-process workers, checked through its fabric_* metrics (submit, poll,
# results schema, cache-hit re-run, one fast-forward per workload shared
# through the checkpoint store, interval sampling, then a SIGTERM drain to
# a zero exit). Everything it writes stays under .bench_build/smoke.
SMOKE = .bench_build/smoke

smoke:
	rm -rf $(SMOKE); mkdir -p $(SMOKE)
	$(GO) run ./cmd/renamelint -json ./... | \
		$(GO) run ./cmd/ckjson 'schema_version=2' 'analyzers.0=determinism' 'analyzers.6=schemalock' \
			'count=0' findings
	$(GO) run ./cmd/renamesim -workload poly_horner -pipeview 20 > /dev/null
	$(GO) run ./cmd/renamesim -workload poly_horner -pipeview 20 -chrome $(SMOKE)/trace.json > /dev/null
	$(GO) run ./cmd/ckjson traceEvents.0.ph displayTimeUnit < $(SMOKE)/trace.json
	$(GO) run ./cmd/renamesim -workload poly_horner -json | \
		$(GO) run ./cmd/ckjson ipc cycles instructions checksum_ok \
			pipeline.Committed rename_int.Allocations \
			metrics.counters metrics.histograms.0.name
	$(GO) run ./cmd/renamesim -workload poly_horner -sample 200:500:5000 -json | \
		$(GO) run ./cmd/ckjson sampled.plan sampled.samples sampled.ipc_mean
	$(GO) run ./cmd/renamesim -workload poly_horner -metrics-interval 500 > /dev/null
	$(GO) run ./cmd/paper -table 3 > /dev/null
	$(GO) run ./cmd/paper -table 3 -cpuprofile $(SMOKE)/cpu.pprof > /dev/null
	test -s $(SMOKE)/cpu.pprof
	$(GO) build -o $(SMOKE)/sweepd ./cmd/sweepd
	$(GO) build -o $(SMOKE)/ckjson ./cmd/ckjson
	@set -e; \
	$(SMOKE)/sweepd -addr 127.0.0.1:0 -dir $(SMOKE)/sweeps \
		> $(SMOKE)/sweepd.log 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' $(SMOKE)/sweepd.log && break; sleep 0.1; \
	done; \
	base=$$(sed -n 's/^sweepd local listening on //p' $(SMOKE)/sweepd.log); \
	test -n "$$base" || { echo "sweepd did not start"; cat $(SMOKE)/sweepd.log; exit 1; }; \
	spec='{"name":"smoke","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}'; \
	id=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id/results" | $(SMOKE)/ckjson \
		schema_version spec.name jobs.0.workload jobs.1.scheme \
		results.0.cycles results.0.checksum_ok=true results.1.checksum_ok=true; \
	id2=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id2" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/metrics" | $(SMOKE)/ckjson \
		'metrics.#fabric_jobs_executed.value=2' \
		'metrics.#fabric_jobs_cache_hits.value=2' \
		'metrics.#fabric_sweeps_completed.value=2'; \
	ffspec='{"name":"smoke-ff","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"fast_forward":2000,"warmup":500}'; \
	id3=$$(curl -sf -X POST "$$base/sweeps" -d "$$ffspec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id3" || { echo "ff sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id3" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id3/results" | $(SMOKE)/ckjson \
		results.0.ff_insts=2000 results.1.ff_insts=2000 \
		results.0.checksum_ok=true results.1.checksum_ok=true; \
	smspec='{"name":"smoke-sample","workloads":["poly_horner"],"schemes":["reuse"],"scale":1,"sample":"200:500:5000"}'; \
	id4=$$(curl -sf -X POST "$$base/sweeps" -d "$$smspec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id4" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id4/results" | $(SMOKE)/ckjson \
		results.0.sampled.plan results.0.sampled.samples results.0.sampled.ipc_mean; \
	curl -sf "$$base/metrics" | $(SMOKE)/ckjson \
		'metrics.#fabric_ckpt_misses.value=1' \
		'metrics.#fabric_ckpt_hits.value=1' \
		'metrics.#fabric_jobs_sampled.value=1'; \
	kill -TERM $$pid; wait $$pid || { echo "sweepd did not exit cleanly"; cat $(SMOKE)/sweepd.log; exit 1; }; \
	trap - EXIT; \
	rm -rf $(SMOKE)
	@echo smoke OK

# benchsmoke is the CI throughput gate: five interleaved rounds of the
# throughput and figure benchmarks from one test binary, failed by benchjson
# unless the median of every headline rate clears its floor and every round
# of the streaming figure collectors stays within its allocs/op ceiling.
# BENCH_core.json records medians of ~3.2 Minst/s raw detailed, ~32
# sampled, ~66 streaming analysis and ~205 fast-forward, taken in one of
# the slower spells of a shared host whose speed moves by up to 2x between
# runs; in its faster spells the same rates read ~4.8, ~34, ~97 and ~318. The sampled, analysis and
# fast-forward floors sit below half the slower rates, while the detailed
# floor sits about 25% under its slower rate and trips first on a
# slowdown of the core; the median keeps one slow round on a busy host
# from failing the gate.
BENCHSMOKE = ^(BenchmarkSimulatorThroughput|BenchmarkFastForward|BenchmarkSampledThroughput|BenchmarkAnalysisThroughput|BenchmarkFig1SingleUse|BenchmarkFig2Consumers|BenchmarkFig3ReuseDepth)$$

benchsmoke:
	@set -e; \
	d=.bench_build/benchsmoke; rm -rf $$d; mkdir -p $$d; \
	$(GO) test -c -o $$d/repro.test .; \
	for i in 1 2 3 4 5; do \
		$$d/repro.test -test.run '^$$' -test.bench '$(BENCHSMOKE)' \
			-test.benchtime 1x -test.benchmem >> $$d/rounds.txt; \
	done; \
	$(GO) run ./cmd/benchjson -floor 2.4 -sampled-floor 10 -analysis-floor 10 -ff-floor 80 \
		-allocs 'BenchmarkFig1SingleUse=1000,BenchmarkFig2Consumers=1000,BenchmarkFig3ReuseDepth=1000' \
		< $$d/rounds.txt > /dev/null; \
	rm -rf $$d

# results-check is the committed-results gate: regenerate every table and
# figure at reference scale with the extensions and the sweep cache off into
# a scratch directory, then require it to equal results/ file for file, so a
# changed, missing or extra CSV fails. TestPaperClaims (in `make test`)
# asserts EXPERIMENTS.md's shape claims on the committed files; together
# they keep the CSVs, the code and the prose in step. About a minute on
# 2 vCPUs.
results-check:
	@set -e; \
	d=.bench_build/results-check; rm -rf $$d; mkdir -p $$d; \
	$(GO) run ./cmd/paper -scale 4 -ext -cache off -out $$d > /dev/null; \
	diff -r results $$d; \
	rm -rf $$d
	@echo results-check OK

# fabricsmoke boots the distributed sweep fabric on loopback — one
# coordinator and two workers, each with its own state dir — runs a small
# grid, asserts the results schema, then re-submits the identical spec and
# requires the rerun to be served 100% from the shared artifact store
# (fabric_jobs_cache_hits covers the grid, fabric_jobs_executed unchanged,
# no new leases). Finally every process is SIGTERMed and must drain to a
# zero exit — the graceful-shutdown contract of all three sweepd modes.
# Everything it writes stays under .bench_build/fabricsmoke.
FABSMOKE = .bench_build/fabricsmoke

fabricsmoke:
	rm -rf $(FABSMOKE); mkdir -p $(FABSMOKE)
	$(GO) build -o $(FABSMOKE)/sweepd ./cmd/sweepd
	$(GO) build -o $(FABSMOKE)/ckjson ./cmd/ckjson
	@set -e; \
	$(FABSMOKE)/sweepd -mode=coordinator -addr 127.0.0.1:0 \
		-dir $(FABSMOKE)/coord -lease-ttl 5s \
		> $(FABSMOKE)/coord.log 2>&1 & \
	cpid=$$!; trap 'kill $$cpid $$w1pid $$w2pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' $(FABSMOKE)/coord.log && break; sleep 0.1; \
	done; \
	base=$$(sed -n 's/^sweepd coordinator listening on //p' $(FABSMOKE)/coord.log); \
	test -n "$$base" || { echo "coordinator did not start"; cat $(FABSMOKE)/coord.log; exit 1; }; \
	$(FABSMOKE)/sweepd -mode=worker -coordinator "$$base" -id w1 \
		-dir $(FABSMOKE)/w1 -poll 50ms \
		> $(FABSMOKE)/w1.log 2>&1 & \
	w1pid=$$!; \
	$(FABSMOKE)/sweepd -mode=worker -coordinator "$$base" -id w2 \
		-dir $(FABSMOKE)/w2 -poll 50ms \
		> $(FABSMOKE)/w2.log 2>&1 & \
	w2pid=$$!; \
	spec='{"name":"fabsmoke","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}'; \
	id=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 600); do \
		curl -sf "$$base/sweeps/$$id" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id/results" | $(FABSMOKE)/ckjson \
		schema_version spec.name jobs.0.workload jobs.1.scheme \
		results.0.cycles results.0.checksum_ok=true results.1.checksum_ok=true; \
	id2=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 600); do \
		curl -sf "$$base/sweeps/$$id2" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/metrics" | $(FABSMOKE)/ckjson \
		'metrics.#fabric_jobs_executed.value=2' \
		'metrics.#fabric_jobs_cache_hits.value=2' \
		'metrics.#fabric_leases_granted.value=2' \
		'metrics.#fabric_sweeps_completed.value=2' \
		'metrics.#fabric_lease_expiries.value=0'; \
	kill -TERM $$w1pid; wait $$w1pid || { echo "worker 1 did not exit cleanly"; cat $(FABSMOKE)/w1.log; exit 1; }; \
	kill -TERM $$w2pid; wait $$w2pid || { echo "worker 2 did not exit cleanly"; cat $(FABSMOKE)/w2.log; exit 1; }; \
	kill -TERM $$cpid; wait $$cpid || { echo "coordinator did not exit cleanly"; cat $(FABSMOKE)/coord.log; exit 1; }; \
	trap - EXIT; \
	rm -rf $(FABSMOKE)
	@echo fabricsmoke OK

# perfbench-test vets and tests the benchmark in perfbench/. It is a separate
# Go module, so `go build ./...` and `go test ./...` at the root skip it, yet
# its renamer replay calls rename.NewEarly, Checkpoint and ReleaseCheckpoint:
# a renamer API change must keep it compiling.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: test vet lint lintsmoke race ckpt-tests smoke benchsmoke results-check fabricsmoke perfbench-test

# bench regenerates BENCH_core.json from five interleaved rounds of every
# benchmark, with allocation counts, run from one test binary as benchsmoke
# runs its rounds. benchjson writes one record per benchmark holding the
# median ns/op, B/op, allocs/op and custom metrics over its five repeats,
# plus the detailed/sampled/analysis/fast-forward headline rates taken from
# those medians. The artifact is committed: it is the recorded baseline that
# README's throughput table cites and benchsmoke's floors derive from. On a
# multi-core host run `taskset -c 1 make bench`, so that benchmark names
# carry no -N suffix.
bench:
	@set -e; \
	d=.bench_build/bench; rm -rf $$d; mkdir -p $$d; \
	$(GO) test -c -o $$d/repro.test .; \
	for i in 1 2 3 4 5; do \
		$$d/repro.test -test.run '^$$' -test.bench . \
			-test.benchtime 1x -test.benchmem >> $$d/rounds.txt; \
	done; \
	$(GO) run ./cmd/benchjson -echo -o BENCH_core.json < $$d/rounds.txt; \
	rm -rf $$d

# benchpair compares a revision with the working tree in paired rounds.
# It builds the root test binary twice under .bench_build/benchpair, from
# `git archive $(REV)` and from the working tree, runs $(ROUNDS) rounds of
# the $(BENCH) benchmarks, alternating which build runs first, each build
# from its own tree, and prints per benchmark each side's median and
# quartiles, the median of the per-round ratios new/base and the rounds the
# working tree won (`benchjson -pair`). A host that changes speed between
# runs moves both sides of a round alike, so the ratios show a change that
# the absolute rates of BENCH_core.json cannot. It reports and gates
# nothing. Override as `make benchpair REV=HEAD~1
# BENCH=BenchmarkCacheHitSubmit BENCHTIME=20x`; a `$` in BENCH is written
# `$$`. On a multi-core host run it under `taskset -c 1`.
REV ?= HEAD
ROUNDS ?= 10
BENCH ?= $(BENCHSMOKE)
BENCHTIME ?= 1x

benchpair:
	@set -e; \
	d=$(CURDIR)/.bench_build/benchpair; rm -rf $$d; mkdir -p $$d/base; \
	git archive $(REV) | tar -x -C $$d/base; \
	(cd $$d/base && $(GO) test -c -o $$d/base.test .); \
	$(GO) test -c -o $$d/new.test .; \
	for i in $$(seq 1 $(ROUNDS)); do \
		order="base new"; [ $$((i % 2)) = 1 ] || order="new base"; \
		for side in $$order; do \
			dir=$(CURDIR); [ $$side = new ] || dir=$$d/base; \
			(cd $$dir && $$d/$$side.test -test.run '^$$' -test.bench '$(BENCH)' \
				-test.benchtime $(BENCHTIME) -test.timeout 30m) >> $$d/$$side.txt; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson -pair $$d/base.txt $$d/new.txt
