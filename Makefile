# Developer entry points. `make check` is the recommended pre-commit
# gate: tier-1 build+test, vet, and a race pass over the packages with
# real concurrency (the farm's goroutine ranks, the message transports,
# the lock-free telemetry primitives, the multicore pricing kernel, the
# risk engine's batch pricer, and the serving layer's batcher, cache,
# singleflight and admission control).

GO ?= go

.PHONY: build test vet lint race check smoke compat fuzz loc wireshape prices profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs riskvet, the project's own static analysis suite
# (internal/lint): detrand, maporder, wallclock, ctxflow, wireshape and
# metricnames machine-check the determinism, clock, context and
# wire-format invariants, and testonly fails on any declaration or field
# under internal/ that only tests use. Exceptions live in the source as checked
# //lint:allow directives; a violation is a positioned diagnostic and a
# non-zero exit.
lint:
	$(GO) run ./cmd/riskvet

# wireshape regenerates the golden wire-struct shape hashes after a
# deliberate protocol change. It refuses to bless a shape change unless
# the protocol version constant was bumped first.
wireshape:
	$(GO) run ./cmd/riskvet -write-wireshape

# prices rewrites internal/portfolio/prices.lock, the bits of every price
# in Table I's regression suite, after a change that moves a price on
# purpose (TestPriceLock fails on any other move). The commit names the
# methods that moved.
prices:
	$(GO) test -run '^TestPriceLock$$' -count=1 ./internal/portfolio -args -write-prices

# race covers the packages with real concurrency, including the
# telemetry span-reassembly and trace-table tests, the farm's
# cross-process span shipping, the serve-over-TCP trace integration
# test, and the simulated scheduler (simnet) plus the portfolio
# calibrator that drives it — and nsp, whose codec runs on every one of
# those goroutines. The pinned simulated runs join them: the simulator's
# master is a farm session, so they run its lock, condition variable and
# cancellation hook inside simnet's coroutine ranks.
race:
	$(GO) test -race ./internal/nsp ./internal/farm ./internal/mpi ./internal/telemetry ./internal/premia ./internal/risk ./internal/serve ./internal/simnet ./internal/portfolio ./internal/var
	$(GO) test -race -run 'TestPinned|TestRunCancelled' ./internal/bench

check: build vet lint test race

# compat runs the wire-protocol version matrix: every pairing of v1/v2
# masters and workers over the tcp and unix transports must negotiate
# down to the common subset and price bit-identically (spans and other
# optional payloads silently unship across version boundaries). This is
# the rolling-upgrade gate: it proves an old worker can serve a new
# master and vice versa.
compat:
	$(GO) test -run TestCompat -v ./internal/mpi ./internal/risk

# fuzz explores every decoder a socket can reach, bottom up, for 10 s each
# (go test takes one -fuzz target per invocation): the nsp stream decoder
# under every message, the mpi frame reader and hello parser, the
# farm's batch descriptor and span/event payloads fed through
# nsp.Unserialize as a frame's bytes arrive, and the JSON bodies of the
# four POST endpoints. No input may panic or allocate past its bounds,
# whatever decodes must survive its own codec, and every request body gets
# a JSON answer that is no 5xx. Then it fuzzes the table-driven
# mathutil.Exp the Monte Carlo kernels price with: within 2 ulp of
# math.Exp on any argument, and ExpVec equal to it bit for bit. The seeds
# (golden wire bytes plus every known corruption) also run under plain
# `go test`. A failing input lands in the package's testdata/fuzz/;
# commit it with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzUnserialize$$' -fuzztime 10s ./internal/nsp
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrame$$' -fuzztime 10s ./internal/mpi
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeHello$$' -fuzztime 10s ./internal/mpi
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatch$$' -fuzztime 10s ./internal/farm
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRecords$$' -fuzztime 10s ./internal/farm
	$(GO) test -run '^$$' -fuzz 'FuzzServeBodies$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzExp$$' -fuzztime 10s ./internal/mathutil

# loc prints non-test and test Go lines per package directory, then the
# module-root façade and the internal/* + cmd/* total, so ROADMAP's size
# targets are read off a command.
LOC_ROW = printf '%-24s %8d %8d\n' $(1) \
	$$(find $(2) $(3) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l) \
	$$(find $(2) $(3) -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
loc:
	@printf '%-24s %8s %8s\n' directory non-test test
	@for d in internal/* cmd/* benchmark; do $(call LOC_ROW,$$d,$$d); done
	@$(call LOC_ROW,"facade (root *.go)",.,-maxdepth 1)
	@$(call LOC_ROW,"internal/* + cmd/*",internal cmd)

# smoke boots riskserver, prices one request, and asserts /healthz,
# /metrics, /metrics.json, /debug/traces and /debug/pprof all respond.
smoke:
	sh scripts/smoke.sh

# profile answers "where does a toy repricing's CPU go": it runs the
# benchmark's var_toy operation in process (BenchmarkFullRevalToy: toy
# 250 claims × 24 scenarios, 1000 reports, ~5 s of samples) under the CPU
# profiler and prints the cumulative top of the profile, then the flat
# top (a leaf spread thin over many callers, such as map hashing, shows
# only there). What it measures is the engine as riskserver configures it
# at -workers 1, not a cheaper one: a standing session (so the receiving
# caller's and the mailbox's wake-ups show), registry, fleet book and the
# premia sink live (so premia's per-sweep instruments show), the base
# column read from a price cache, and every report's spans filed in a
# trace. It then does the same for the var_real operation
# (BenchmarkFullRevalReal: the 33-claim realistic sample × 5 scenarios,
# Monte Carlo kernels GOMAXPROCS wide; 100 reports, ~5 s), where the
# kernels' exps and normals show, and for BenchmarkFullRevalBook (100
# claims × 1000 scenarios, each claim cut across sweeps; 100 reports,
# ~5 s). The binary and the profiles (cpu.prof, real.prof, book.prof) stay
# in $(PROFILE_DIR) for `go tool pprof -list`.
PROFILE_DIR ?= .profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkFullRevalToy$$' -benchtime 1000x -cpuprofile $(PROFILE_DIR)/cpu.prof -o $(PROFILE_DIR)/var.test ./internal/var
	$(GO) tool pprof -top -cum -nodecount 45 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/cpu.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/cpu.prof
	$(GO) test -run '^$$' -bench 'BenchmarkFullRevalReal$$' -benchtime 100x -cpuprofile $(PROFILE_DIR)/real.prof -o $(PROFILE_DIR)/var.test ./internal/var
	$(GO) tool pprof -top -cum -nodecount 45 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/real.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/real.prof
	$(GO) test -run '^$$' -bench 'BenchmarkFullRevalBook$$' -benchtime 100x -cpuprofile $(PROFILE_DIR)/book.prof -o $(PROFILE_DIR)/var.test ./internal/var
	$(GO) tool pprof -top -cum -nodecount 45 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/book.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/var.test $(PROFILE_DIR)/book.prof
