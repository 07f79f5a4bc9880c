GO ?= go
FUZZTIME ?= 30s
# Staticcheck is pinned: version drift between developer machines and CI
# turns every upstream check change into spurious red. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test check vet race fuzz-smoke campaign chaos staticcheck \
	staticcheck-install analyzers lint analyze serve-smoke crash cluster-chaos \
	bench-smoke overload-chaos perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector. -short trims the
# differential campaign and the heavier property sweeps so the ~10x race
# overhead stays inside a CI budget; the full-size campaign runs race-free
# in `test`.
race:
	$(GO) test -race -short ./...

# fuzz-smoke runs the cross-engine differential fuzzer for a bounded time
# on top of the checked-in corpus. Any disagreement is shrunk and reported
# with a ready-to-paste regression test.
fuzz-smoke:
	$(GO) test ./internal/differential -run='^$$' -fuzz=FuzzCrossEngine -fuzztime=$(FUZZTIME)

# campaign replays the standing 200-program differential campaign (also run
# as TestCrossEngineCampaign) through the CLI.
campaign:
	$(GO) run ./cmd/difffuzz -programs 200 -v

# chaos is the fault-injection tier: every engine driven through the
# deterministic fault plans of internal/faultinject, race-enabled, asserting
# typed errors, no goroutine leaks, and deterministic truncation points.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/...

# staticcheck is a hard gate: the run fails if the tool is missing or not
# at the pinned version. Install it with `make staticcheck-install`
# (requires network; the CI vet job does exactly that).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck: not installed; run 'make staticcheck-install'"; exit 1; }
	@staticcheck -version | grep -qF "$(STATICCHECK_VERSION)" || { \
		echo "staticcheck: version mismatch: want $(STATICCHECK_VERSION), got: $$(staticcheck -version)"; exit 1; }
	staticcheck ./...

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# analyzers runs the repo's own Go invariant checkers (tools/analyzers):
# nopanic, typederr and govcontext over every package.
analyzers:
	$(GO) run ./tools/analyzers/multichecker .

# lint runs the MultiLog/Datalog program linter over the shipped example
# corpus; warnings fail too, the corpus is meant to be pristine.
lint:
	$(GO) run ./cmd/multivet -strict examples/ cmd/multilog/testdata

# analyze runs the full pass catalog (including the whole-program flow and
# cost analyses) over the example corpus and emits the findings as a SARIF
# artifact for code-scanning upload. The corpus is clean, so the artifact
# normally carries an empty result set under the full rule catalog.
analyze:
	$(GO) run ./cmd/multivet -sarif examples/ cmd/multilog/testdata > multivet.sarif
	@echo "analyze: wrote multivet.sarif"

# serve-smoke is the end-to-end daemon gate: generate a workload program,
# start multilogd, storm it with serveload (concurrent sessions plus
# assert/retract churn), cross-check /v1/stats, verify a clean SIGTERM
# drain, then SIGKILL a durable daemon and prove the acknowledged write
# survives a restart.
serve-smoke:
	sh scripts/serve_smoke.sh

# crash runs the full kill-crash recovery matrix (crashpoint × fsync mode)
# under the race detector: multilogd as a child process, SIGKILLed by
# injected WAL faults, restarted, and checked for zero acked-write loss and
# byte-equal answers against a reference replay.
crash:
	CRASH_MATRIX=full $(GO) test -race -count=1 -run TestKillCrashRecovery ./internal/wal/crash

# cluster-chaos runs the replication fleet matrix under the race detector:
# primary + two followers + router as real child processes, the primary
# SIGKILLed mid-checkpoint and mid-stream, stream frames corrupted and
# torn, a follower partitioned and re-caught-up — checked for zero
# acked-write loss after promotion and byte-equal answers across the
# fleet for every clearance × belief mode.
cluster-chaos:
	CRASH_MATRIX=full $(GO) test -race -count=1 -run TestClusterChaos ./internal/wal/crash

# overload-chaos runs the overload-protection harness under the race
# detector: a serveload storm driven far past the admission controller's
# capacity with fault-injected latency spikes, asserting bounded
# admitted-read p99, a never-starved control plane (healthz and
# replication bypass admission), brownout stale serving, zero acked-write
# loss during overload, and zero goroutine leaks after drain.
overload-chaos:
	$(GO) test -race -count=1 \
		-run 'TestOverloadChaos|TestSustainedOverloadNoLeaks|TestBrownoutServesStale' \
		./internal/server

# bench-smoke runs the 90/10 write-mix benchmark at a short benchtime and
# gates the cached-read p50 ratio of the server's per-predicate
# invalidation vs the global baseline, which the benchmark itself applies
# by wrapping the handler (no server knob), through benchreport. The smoke
# bar (>=2x) is looser than the committed BENCH_incremental.json (>=5x) to
# absorb short-run noise; it exists to catch the incremental invalidation
# path silently degrading to global.
bench-smoke:
	sh scripts/bench_smoke.sh

# perfbench-test vets and tests the request-path benchmark module
# (perfbench/, its own go.mod replacing repro with ../), so an internal API
# change that breaks the benchmark fails here rather than in a benchmark
# run.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# check is the CI tier: vet, the custom analyzers, staticcheck, build, the
# program linter, the SARIF analysis artifact, the race-enabled suite, the chaos tier, the crash-recovery
# matrix, the replication cluster-chaos matrix, the overload-protection
# harness, the daemon smoke, the bench smokes (write-mix, compiled,
# overload goodput), the benchmark module's tests, and a bounded
# differential fuzz smoke.
check: vet analyzers staticcheck build lint analyze race chaos crash cluster-chaos overload-chaos serve-smoke bench-smoke perfbench-test fuzz-smoke
	@echo "check: all gates passed"
