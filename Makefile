# Standard checks for the provabs repo.
#
#   make check       — vet + build + fast race-enabled tests with a
#                      total-coverage summary, then the binary-level
#                      crash-recovery leg (kill a durable serve process at
#                      a WAL crash point, restart, verify), the gateway
#                      e2e leg and the seeded pool chaos sweep — the CI
#                      gate
#   make test        — the full (slow) test suite, as tier-1 verify runs it
#   make bench       — go-test microbenchmarks plus the provbench paper
#                      tables, the delta-kernel report (BENCH_3.json), the
#                      planner report (BENCH_5.json), the generic-kernel
#                      report (BENCH_6.json), the ScenQL generator-vs-wire
#                      report (BENCH_7.json) and the gateway pool-router
#                      report (BENCH_9.json), then benchdiff gates the
#                      series consecutive reports share — the perf
#                      trajectory reproduces and self-checks in one command
#   make bench-smoke — every benchmark once (-benchtime=1x), the CI guard
#                      against benchmarks silently rotting
#   make examples    — run every example program; a non-zero exit fails
#   make serve       — generate demo provenance (if needed) and start the
#                      streaming what-if server on :8080

GO ?= go

.PHONY: check vet build test-short test crash-recovery gateway-e2e chaos perfbench-check bench bench-smoke examples serve

check: vet build test-short crash-recovery gateway-e2e chaos perfbench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test-short:
	$(GO) test -short -race -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1 | sed 's/^/coverage: /'

test:
	$(GO) test ./...

# The -short suite skips binary-level integration tests; run the durability
# acceptance check (crash mid-add-stream → restart → identical answers,
# Compiles == 1, SIGTERM exits 0) explicitly, race-enabled.
crash-recovery:
	$(GO) test -race -count=1 -run '^TestServeCrashRecovery$$' ./cmd/provabs

# The gateway acceptance leg: two real backends behind a real gateway —
# create/add/query through it, a backend killed mid-stream must surface an
# in-band terminal error, a drain must live-migrate with bit-identical
# answers (Compiles == 1 on the importer, no acked add lost).
gateway-e2e:
	$(GO) test -race -count=1 -run '^TestGateway' ./internal/gateway

# The pool-level chaos sweep: real backends behind seeded fault proxies
# (latency, resets, torn chunks, kill/revive outage windows) while clients
# stream adds through the gateway. Deterministic fault schedules — a
# failure replays from its seed. Asserts zero lost acked writes, no
# invented writes, and bit-identical answers gateway-vs-holder.
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/gateway/gatewaychaos

# perfbench/ is a nested module, so the ./... patterns above skip it. Vet
# and test it here, so a change to an internal API it imports fails in CI
# rather than first when the benchmark runs.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/provbench
	$(GO) run ./cmd/provbench -experiment delta -json BENCH_3.json
	$(GO) run ./cmd/provbench -experiment planner -json BENCH_5.json
	$(GO) run ./cmd/provbench -experiment semiring -json BENCH_6.json
	$(GO) run ./cmd/provbench -experiment scenql -json BENCH_7.json
	$(GO) run ./cmd/provbench -experiment gateway -json BENCH_9.json
	$(GO) run ./cmd/benchdiff -tolerance 0.25 \
		-series batch100-sparse,batch100-sparse-nodelta BENCH_3.json BENCH_5.json
	$(GO) run ./cmd/benchdiff -tolerance 0.25 \
		-series batch100-sparse,batch100-sparse-nodelta BENCH_5.json BENCH_6.json
	$(GO) run ./cmd/benchdiff -tolerance 0.25 \
		-series batch100-sparse,batch100-sparse-nodelta BENCH_6.json BENCH_7.json
	$(GO) run ./cmd/benchdiff -tolerance 0.25 \
		-series batch100-sparse,batch100-sparse-nodelta BENCH_7.json BENCH_9.json

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# ./... only builds the examples; this runs each one to completion.
examples:
	@for ex in examples/*/; do \
		echo "$(GO) run ./$$ex"; \
		$(GO) run ./$$ex || exit 1; \
	done

demo.pvab:
	$(GO) run ./cmd/provabs generate -dataset telco -customers 1000 -zips 100 -out $@

demo2.pvab:
	$(GO) run ./cmd/provabs generate -dataset telco -customers 500 -zips 50 -seed 7 -out $@

serve: demo.pvab demo2.pvab
	$(GO) run ./cmd/provabs serve -load telco=demo.pvab -load telco2=demo2.pvab \
		-addr :8080 \
		-tree 'Quarters(q1(m1,m2,m3),q2(m4,m5,m6),q3(m7,m8,m9),q4(m10,m11,m12))' \
		-algo greedy -ratio 0.5
