# Developer/CI entry points. `make ci` is the gate future changes run:
# build + full tests (including the golden-stats determinism test and the
# zero-allocation test), vet, the race detector over the internal
# packages, and the perfbench module's vet and tests.

GO ?= go

.PHONY: test vet lint lintsmoke race smoke benchsmoke driftsmoke fabricsmoke perfbench-test ci ckpt-tests bench

test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs renamelint (internal/lint): the determinism, detflow, hotpath,
# tagpair, obsguard, guardedby, snapshot and schemalock analyzers over every
# package, commands included. Zero findings is a hard gate; see DESIGN.md
# §13 and §18 for the directives that scope and suppress it.
lint:
	$(GO) run ./cmd/renamelint ./...

# lintsmoke is the schema-golden no-drift gate: regenerate every
# //repro:schema golden into a scratch directory and require it to be
# byte-identical to the committed schemas/. A shape change that skipped
# `renamelint -update-schemas` — or a hand-edited golden — fails here, so
# the goldens on main can never go stale.
lintsmoke:
	@set -e; \
	rm -rf /tmp/regreuse_lintsmoke_schemas; \
	$(GO) run ./cmd/renamelint -update-schemas -schema-dir /tmp/regreuse_lintsmoke_schemas ./... > /dev/null; \
	diff -ru schemas /tmp/regreuse_lintsmoke_schemas; \
	rm -rf /tmp/regreuse_lintsmoke_schemas
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
# workload: renamesim's pipeline view, its Chrome trace export and its JSON
# run artifact (both schema-checked with ckjson), metrics CSV streaming, one
# paper table with and without a CPU profile, the sweepd local-mode flow —
# a fabric coordinator with in-process workers, checked through its
# fabric_* metrics (submit, poll, results schema, cache-hit re-run, one
# fast-forward per workload shared through the checkpoint store, interval
# sampling, then a SIGTERM drain to a zero exit) — and the driftd flow
# (CLI ingest + schema-checked drift report, then the HTTP surface:
# POST /ingest, GET /report, GET /metrics).
smoke:
	$(GO) run ./cmd/renamelint -json ./... | \
		$(GO) run ./cmd/ckjson 'schema_version=2' analyzers.0 analyzers.7 \
			'count=0' findings
	$(GO) run ./cmd/renamesim -workload poly_horner -pipeview 20 > /dev/null
	$(GO) run ./cmd/renamesim -workload poly_horner -pipeview 20 -chrome /tmp/regreuse_smoke_trace.json > /dev/null
	$(GO) run ./cmd/ckjson traceEvents.0.ph displayTimeUnit < /tmp/regreuse_smoke_trace.json
	rm -f /tmp/regreuse_smoke_trace.json
	$(GO) run ./cmd/renamesim -workload poly_horner -json | \
		$(GO) run ./cmd/ckjson ipc cycles instructions checksum_ok \
			pipeline.Committed rename_int.Allocations \
			metrics.counters metrics.histograms.0.name
	$(GO) run ./cmd/renamesim -workload poly_horner -metrics-interval 500 > /dev/null
	$(GO) run ./cmd/paper -table 3 > /dev/null
	$(GO) run ./cmd/paper -table 3 -cpuprofile /tmp/regreuse_smoke_cpu.pprof > /dev/null
	test -s /tmp/regreuse_smoke_cpu.pprof
	rm -f /tmp/regreuse_smoke_cpu.pprof
	$(GO) build -o /tmp/regreuse_smoke_sweepd ./cmd/sweepd
	$(GO) build -o /tmp/regreuse_smoke_ckjson ./cmd/ckjson
	@set -e; \
	rm -rf /tmp/regreuse_smoke_sweeps; \
	/tmp/regreuse_smoke_sweepd -addr 127.0.0.1:0 -dir /tmp/regreuse_smoke_sweeps \
		> /tmp/regreuse_smoke_sweepd.log 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' /tmp/regreuse_smoke_sweepd.log && break; sleep 0.1; \
	done; \
	base=$$(sed -n 's/^sweepd local listening on //p' /tmp/regreuse_smoke_sweepd.log); \
	test -n "$$base" || { echo "sweepd did not start"; cat /tmp/regreuse_smoke_sweepd.log; exit 1; }; \
	spec='{"name":"smoke","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}'; \
	id=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id/results" | /tmp/regreuse_smoke_ckjson \
		schema_version spec.name jobs.0.workload jobs.1.scheme \
		results.0.cycles results.0.checksum_ok=true results.1.checksum_ok=true; \
	id2=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id2" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/metrics" | /tmp/regreuse_smoke_ckjson \
		'metrics.#fabric_jobs_executed.value=2' \
		'metrics.#fabric_jobs_cache_hits.value=2' \
		'metrics.#fabric_sweeps_completed.value=2'; \
	ffspec='{"name":"smoke-ff","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"fast_forward":2000,"warmup":500}'; \
	id3=$$(curl -sf -X POST "$$base/sweeps" -d "$$ffspec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id3" || { echo "ff sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id3" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id3/results" | /tmp/regreuse_smoke_ckjson \
		results.0.ff_insts=2000 results.1.ff_insts=2000 \
		results.0.checksum_ok=true results.1.checksum_ok=true; \
	smspec='{"name":"smoke-sample","workloads":["poly_horner"],"schemes":["reuse"],"scale":1,"sample":"200:500:5000"}'; \
	id4=$$(curl -sf -X POST "$$base/sweeps" -d "$$smspec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 300); do \
		curl -sf "$$base/sweeps/$$id4" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id4/results" | /tmp/regreuse_smoke_ckjson \
		results.0.sampled.plan results.0.sampled.samples results.0.sampled.ipc_mean; \
	curl -sf "$$base/metrics" | /tmp/regreuse_smoke_ckjson \
		'metrics.#fabric_ckpt_misses.value=1' \
		'metrics.#fabric_ckpt_hits.value=1' \
		'metrics.#fabric_jobs_sampled.value=1'; \
	kill -TERM $$pid; wait $$pid || { echo "sweepd did not exit cleanly"; cat /tmp/regreuse_smoke_sweepd.log; exit 1; }; \
	trap - EXIT; \
	rm -rf /tmp/regreuse_smoke_sweeps /tmp/regreuse_smoke_sweepd /tmp/regreuse_smoke_sweepd.log
	$(GO) build -o /tmp/regreuse_smoke_driftd ./cmd/driftd
	@set -e; \
	rm -rf /tmp/regreuse_smoke_drift; \
	/tmp/regreuse_smoke_driftd ingest -dir /tmp/regreuse_smoke_drift > /dev/null; \
	/tmp/regreuse_smoke_driftd report -dir /tmp/regreuse_smoke_drift | /tmp/regreuse_smoke_ckjson \
		schema_version=1 verdict=pass commits=1 'findings.@len=0' \
		'paper.#figure/fig10_speedup/specfp/64.in_band=true' \
		'paper.#bench/BenchmarkTable2Area/overhead-milli-mm2.in_band=true' \
		golden.classification=first; \
	/tmp/regreuse_smoke_driftd serve -dir /tmp/regreuse_smoke_drift -addr 127.0.0.1:0 \
		> /tmp/regreuse_smoke_driftd.log 2>&1 & \
	dpid=$$!; trap 'kill $$dpid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' /tmp/regreuse_smoke_driftd.log && break; sleep 0.1; \
	done; \
	dbase=$$(sed -n 's/^driftd listening on //p' /tmp/regreuse_smoke_driftd.log); \
	test -n "$$dbase" || { echo "driftd did not start"; cat /tmp/regreuse_smoke_driftd.log; exit 1; }; \
	curl -sf -X POST "$$dbase/ingest" \
		-d '{"commit":"smoke2","artifacts":[{"kind":"figure","name":"fig2_consumers","data":"suite,1\nspecfp,79.068\n"}]}' \
		| /tmp/regreuse_smoke_ckjson commit=smoke2 ingested=1; \
	curl -sf "$$dbase/report" | /tmp/regreuse_smoke_ckjson \
		schema_version=1 commit=smoke2 commits=2 verdict=pass \
		'paper.#figure/fig2_consumers/specfp/1.in_band=true'; \
	curl -sf "$$dbase/metrics" | /tmp/regreuse_smoke_ckjson \
		'metrics.#drift_ingests.value=1' 'metrics.#drift_reports.value=1'
	rm -rf /tmp/regreuse_smoke_drift /tmp/regreuse_smoke_driftd /tmp/regreuse_smoke_driftd.log /tmp/regreuse_smoke_ckjson
	@echo smoke OK

# benchsmoke is the CI throughput gate: five interleaved rounds of the
# throughput and figure benchmarks from one test binary, failed by benchjson
# unless the median of every headline rate clears its floor and every round
# of the streaming figure collectors stays within its allocs/op ceiling.
# BENCH_core.json records medians of ~2.7 Minst/s raw detailed, ~24
# sampled and ~49 streaming analysis on a busy shared host, so the sampled
# and analysis floors sit below half their baselines, while the detailed
# floor sits about 10% under its own and trips first on a slowdown of the
# core; the median keeps one slow round on a busy host from failing the
# gate.
BENCHSMOKE = ^(BenchmarkSimulatorThroughput|BenchmarkFastForward|BenchmarkSampledThroughput|BenchmarkAnalysisThroughput|BenchmarkFig1SingleUse|BenchmarkFig2Consumers|BenchmarkFig3ReuseDepth)$$

benchsmoke:
	@set -e; \
	d=.bench_build/benchsmoke; rm -rf $$d; mkdir -p $$d; \
	$(GO) test -c -o $$d/repro.test .; \
	for i in 1 2 3 4 5; do \
		$$d/repro.test -test.run '^$$' -test.bench '$(BENCHSMOKE)' \
			-test.benchtime 1x -test.benchmem >> $$d/rounds.txt; \
	done; \
	$(GO) run ./cmd/benchjson -floor 2.4 -sampled-floor 10 -analysis-floor 10 \
		-allocs 'BenchmarkFig1SingleUse=1000,BenchmarkFig2Consumers=1000,BenchmarkFig3ReuseDepth=1000' \
		< $$d/rounds.txt > /dev/null; \
	rm -rf $$d

# driftsmoke is the regression-intelligence CI gate: ingest the committed
# artifacts (BENCH_core.json, golden stats, figure CSVs) at HEAD into a
# fresh store, then require the drift report to self-compare clean — every
# paper band in band, no findings, verdict pass. `driftd report` exits
# nonzero on a fail verdict, so drift fails the make.
driftsmoke:
	$(GO) build -o /tmp/regreuse_driftsmoke_driftd ./cmd/driftd
	$(GO) build -o /tmp/regreuse_driftsmoke_ckjson ./cmd/ckjson
	@set -e; \
	rm -rf /tmp/regreuse_driftsmoke; \
	/tmp/regreuse_driftsmoke_driftd ingest -dir /tmp/regreuse_driftsmoke; \
	/tmp/regreuse_driftsmoke_driftd report -dir /tmp/regreuse_driftsmoke -format json \
		| /tmp/regreuse_driftsmoke_ckjson schema_version=1 verdict=pass \
			'findings.@len=0' 'paper.@len=18' golden.classification=first; \
	/tmp/regreuse_driftsmoke_driftd report -dir /tmp/regreuse_driftsmoke -format text
	rm -rf /tmp/regreuse_driftsmoke /tmp/regreuse_driftsmoke_driftd /tmp/regreuse_driftsmoke_ckjson
	@echo driftsmoke OK

# fabricsmoke boots the distributed sweep fabric on loopback — one
# coordinator and two workers, each with its own state dir — runs a small
# grid, asserts the results schema, then re-submits the identical spec and
# requires the rerun to be served 100% from the shared artifact store
# (fabric_jobs_cache_hits covers the grid, fabric_jobs_executed unchanged,
# no new leases). Finally every process is SIGTERMed and must drain to a
# zero exit — the graceful-shutdown contract of all three sweepd modes.
fabricsmoke:
	$(GO) build -o /tmp/regreuse_fabsmoke_sweepd ./cmd/sweepd
	$(GO) build -o /tmp/regreuse_fabsmoke_ckjson ./cmd/ckjson
	@set -e; \
	rm -rf /tmp/regreuse_fabsmoke; mkdir -p /tmp/regreuse_fabsmoke; \
	/tmp/regreuse_fabsmoke_sweepd -mode=coordinator -addr 127.0.0.1:0 \
		-dir /tmp/regreuse_fabsmoke/coord -lease-ttl 5s \
		> /tmp/regreuse_fabsmoke/coord.log 2>&1 & \
	cpid=$$!; trap 'kill $$cpid $$w1pid $$w2pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' /tmp/regreuse_fabsmoke/coord.log && break; sleep 0.1; \
	done; \
	base=$$(sed -n 's/^sweepd coordinator listening on //p' /tmp/regreuse_fabsmoke/coord.log); \
	test -n "$$base" || { echo "coordinator did not start"; cat /tmp/regreuse_fabsmoke/coord.log; exit 1; }; \
	/tmp/regreuse_fabsmoke_sweepd -mode=worker -coordinator "$$base" -id w1 \
		-dir /tmp/regreuse_fabsmoke/w1 -poll 50ms \
		> /tmp/regreuse_fabsmoke/w1.log 2>&1 & \
	w1pid=$$!; \
	/tmp/regreuse_fabsmoke_sweepd -mode=worker -coordinator "$$base" -id w2 \
		-dir /tmp/regreuse_fabsmoke/w2 -poll 50ms \
		> /tmp/regreuse_fabsmoke/w2.log 2>&1 & \
	w2pid=$$!; \
	spec='{"name":"fabsmoke","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}'; \
	id=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	test -n "$$id" || { echo "sweep submission failed"; exit 1; }; \
	for i in $$(seq 1 600); do \
		curl -sf "$$base/sweeps/$$id" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/sweeps/$$id/results" | /tmp/regreuse_fabsmoke_ckjson \
		schema_version spec.name jobs.0.workload jobs.1.scheme \
		results.0.cycles results.0.checksum_ok=true results.1.checksum_ok=true; \
	id2=$$(curl -sf -X POST "$$base/sweeps" -d "$$spec" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	for i in $$(seq 1 600); do \
		curl -sf "$$base/sweeps/$$id2" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "$$base/metrics" | /tmp/regreuse_fabsmoke_ckjson \
		'metrics.#fabric_jobs_executed.value=2' \
		'metrics.#fabric_jobs_cache_hits.value=2' \
		'metrics.#fabric_leases_granted.value=2' \
		'metrics.#fabric_sweeps_completed.value=2' \
		'metrics.#fabric_lease_expiries.value=0'; \
	kill -TERM $$w1pid; wait $$w1pid || { echo "worker 1 did not exit cleanly"; cat /tmp/regreuse_fabsmoke/w1.log; exit 1; }; \
	kill -TERM $$w2pid; wait $$w2pid || { echo "worker 2 did not exit cleanly"; cat /tmp/regreuse_fabsmoke/w2.log; exit 1; }; \
	kill -TERM $$cpid; wait $$cpid || { echo "coordinator did not exit cleanly"; cat /tmp/regreuse_fabsmoke/coord.log; exit 1; }; \
	trap - EXIT; \
	rm -rf /tmp/regreuse_fabsmoke /tmp/regreuse_fabsmoke_sweepd /tmp/regreuse_fabsmoke_ckjson
	@echo fabricsmoke OK

# perfbench-test vets and tests the benchmark in perfbench/. It is a separate
# Go module, so `go build ./...` and `go test ./...` at the root skip it, yet
# its renamer replay calls rename.NewEarly, Checkpoint and ReleaseCheckpoint:
# a renamer API change must keep it compiling.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: test vet lint lintsmoke race ckpt-tests smoke benchsmoke driftsmoke fabricsmoke perfbench-test

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
