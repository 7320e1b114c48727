GO ?= go

.PHONY: build vet lint lint-report test race scale-test perfbench-check bench serve-smoke smoke-scale soak-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gridlint: the repo's own analyzers (cmd/gridlint, internal/analysis).
# Suppress an intentional finding with
#   //gridlint:ignore <analyzer> <reason>
lint:
	$(GO) run ./cmd/gridlint ./...

# Machine-readable lint report (suppressed findings included, with the
# reasons that silence them). CI uploads this as an artifact. The target
# always writes gridlint.json but still fails on error-tier findings.
lint-report:
	$(GO) run ./cmd/gridlint -json ./... > gridlint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Scale-grid tests without race instrumentation: the race suite skips
# the 1000-bus build (see internal/cases/race_on.go), so this is the
# step that builds synth1000 and solves it on the sparse path every gate.
scale-test:
	$(GO) test -count=1 -run 'TestSynth|TestLoadRegistry' ./internal/cases

# The repository benchmark (perfbench/) is its own module, so the root
# ./... patterns never compile it; it imports the serving packages
# through a replace directive, so build (discarding the binary), vet and
# test it here.
perfbench-check:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

# One-iteration benchmark smoke: catches benchmarks that panic or no
# longer compile without paying for stable timings. -short skips the
# 1000-bus rows of BenchmarkPowerFlowScaling (each dense 1000-bus AC
# solve takes seconds). The pipeline benches additionally run at
# -cpu 1,4 (sequential vs parallel, identical output). The telemetry
# hot path (histogram observe, counter inc, trace-ID mint) gets enough
# iterations for a readable ns/op, since its whole contract is "cheap
# enough to leave on". Last, the two serving ratio gates run without
# race instrumentation (they skip under -race): binary frame decode at
# least 2x faster than JSON, and tracing-on binary ingest within 1.5x of
# tracing-off.
bench:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run='^$$' -bench=Pipeline -benchtime=1x -cpu 1,4 .
	$(GO) test -run='^$$' -bench='Histogram|CounterInc|NewTraceID' -benchtime=10000x ./internal/obs
	$(GO) test -count=1 -run='^(TestBinaryDecodeSpeedup|TestTracingOverhead)$$' ./internal/httpserve

# Serving smoke: boot cmd/outaged on an ephemeral port with one fast
# shard, round-trip a detect request over real HTTP (via the client
# package), check it against the direct library answer, hot-reload the
# shard through POST /v1/reload (generation must bump, fingerprint must
# match, answers must stay byte-identical), and require a clean
# graceful shutdown.
serve-smoke:
	$(GO) run ./cmd/outaged -smoke

# Scale smoke: the serve-smoke flow on the 300-bus synthetic grid —
# trains synth300 over the sparse power-flow path (short DC window),
# serves it over real HTTP, and hot-reloads it. This is the check that
# the sparse numerics stack works end to end at scale, not just in
# unit tests.
smoke-scale:
	$(GO) run ./cmd/outaged -smoke -smoke-case synth300 -smoke-steps 8

# Churn soak smoke: an in-process fleet (registry, two traced primaries,
# one canary backend, the traced router) under labelled detect and
# binary-ingest load while the harness injects churn — rolling reloads
# by fingerprint, a patch broadcast, an abrupt backend kill and restart,
# a canary promotion. Writes SOAK_report.json and asserts: every routed
# report byte-identical to the library answer, zero client-visible
# errors across the kill, each rolling reload a 304 conditional
# registry pull, a canary report with every shadow pair byte-identical
# and promotable, a promotion that leaves every shard on the candidate,
# >= 0.9 isolation accuracy, and a retained multi-hop trace.
soak-smoke:
	$(GO) run ./cmd/outagesoak -smoke

# The tier-1 gate (see ROADMAP.md): build, vet, gridlint, race tests,
# uninstrumented scale tests, the perfbench module, benchmark smoke and
# serving ratio gates, serving smokes.
verify: build vet lint race scale-test perfbench-check bench serve-smoke smoke-scale soak-smoke
