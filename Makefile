# Developer entry points. Everything is stdlib-only Go; `make ci` is the
# gate run before merging.

GO ?= go

# Packages whose tests exercise real concurrency (worker pools, barriers,
# shared plans); they get a dedicated -race pass in ci.
RACE_PKGS = . ./internal/stagegraph ./internal/core \
            ./internal/fft1d \
            ./internal/lru ./internal/serve \
            ./internal/trace ./internal/obs ./internal/flightrec \
            ./internal/wire

# Packages carrying the SIMD codelet tier and its dispatch: they run a
# second test pass under -tags purego to prove the pure-Go fallback stays
# correct on its own (the tag forces the Generic kernels everywhere).
PUREGO_PKGS = ./internal/kernels ./internal/layout ./internal/cpufeat \
              ./internal/stagegraph ./internal/fft1d ./internal/core \
              ./internal/tune ./internal/machine ./internal/wire \
              ./internal/stream

# The internal/bench tests of the pencil / slab baselines and of the
# Measured sweeps that time them against the pipeline.
BASELINE_TESTS = ^Test(BaselinesMatchSPL|Measured)

.PHONY: ci vet lint build test purego crossbuild asmgen asmcheck tablegen \
        tablecheck race bench microbench benchsmoke rulersmoke servesmoke \
        obssmoke shardsmoke tracesmoke examplesmoke fuzzsmoke fmt loc test386 \
        serveprobe legprobe laneprobe setupprobe wireprobe kernelprobe

ci: vet lint build crossbuild asmcheck tablecheck test purego test386 race fuzzsmoke benchsmoke servesmoke obssmoke shardsmoke tracesmoke examplesmoke rulersmoke

vet:
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

# Static analysis beyond vet when the tools are installed (staticcheck,
# govulncheck); silently reduces to vet-only on machines without them so
# ci never depends on anything outside the stdlib toolchain.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pure-Go fallback must pass the same tests as the assembly tier, hold
# the sharded plans bitwise to one node through the generic fold kernels
# (the -short shard pass), reproduce its own column of the golden
# oracle (testdata/golden.json holds one output digest per kernel tier),
# and keep the pencil / slab baselines of internal/bench and the Measured
# sweeps that time them correct (only those: the package's figure printers
# exercise no kernel).
purego:
	$(GO) test -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego -short ./internal/shard
	$(GO) test -tags purego -run '^TestGolden$$' .
	$(GO) test -tags purego -run '$(BASELINE_TESTS)' ./internal/bench

# Cross-compile check: the non-amd64 build (no .s files, generic dispatch)
# and the non-Linux ones (no mincore / madvise: the no-op pre-fault twin)
# must keep compiling even though this host never runs them.
# The wire codec on a 32-bit target: its SWAR number kernels work on
# uint64 words that are two registers there, and int is 32 bits, so a dim
# past it must still answer 413.
test386:
	GOARCH=386 $(GO) test ./internal/wire

crossbuild:
	GOARCH=arm64 GOOS=linux $(GO) build ./...
	GOARCH=amd64 GOOS=darwin $(GO) build ./...
	GOARCH=amd64 GOOS=windows $(GO) build ./...

# Regenerate the committed assembly (the AVX2 codelets, the 512-bit tier of
# the radix-8 and radix-16 codelets, the non-temporal scatter and run-major
# gather, the cache-line flush, the load leg's streamed copy) from the
# generator. Run after editing internal/kernels/asm and commit the resulting
# .s files; ci builds never invoke the generator.
asmgen:
	$(GO) run ./internal/kernels/asm
	$(GO) vet ./internal/kernels ./internal/layout

# Drift gate: the committed .s files must be exactly what the generator
# emits. Fails ci when someone edits the assembly by hand or changes the
# generator without re-running `make asmgen`.
asmcheck: asmgen
	git diff --exit-code -- internal/kernels/radix_avx2_amd64.s \
	    internal/kernels/radix_avx512_amd64.s \
	    internal/layout/scatter_avx2_amd64.s \
	    internal/layout/copy_avx512_amd64.s \
	    || { echo "asmcheck: generated assembly out of date — run 'make asmgen' and commit"; exit 1; }

# Regenerate the committed 128-bit powers of ten the JSON number kernels
# multiply by (internal/wire/pow10_table.go) from math/big. Like the
# assembly, the table is committed: the daemon neither imports math/big nor
# computes anything at start-up.
tablegen:
	$(GO) run ./internal/wire/pow10gen

# Drift gate: the committed table must be exactly what the generator emits.
tablecheck: tablegen
	git diff --exit-code -- internal/wire/pow10_table.go \
	    || { echo "tablecheck: generated table out of date — run 'make tablegen' and commit"; exit 1; }

# The shard tier gets its own -short race pass: the full suite's 256³
# cluster test is minutes under the race detector, and the -short set still
# covers the exchange, retry, and drain concurrency — lanes included: every
# slab plan runs one lane per GOMAXPROCS, so at two or more its lanes call
# the exchange's write at once. The baselines' worker
# pools and the Measured sweeps get a filtered pass of internal/bench, whose
# figure printers take most of a minute under -race and share no state.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)
	$(GO) test -race -count=1 -short ./internal/shard
	$(GO) test -race -count=1 -run '$(BASELINE_TESTS)' ./internal/bench

# Distributed-tier smoke: boot a loopback fleet of four worker fftserved
# instances plus a coordinator front-end, round-trip the sharded /transform
# wire format, verify a 128³ sharded transform bitwise against the
# single-node DoubleBuf plan in both directions, check the element rate and
# the fft_shard_*/fft_exchange_* metric families on a real /metrics scrape,
# and exercise the drain ordering.
shardsmoke:
	$(GO) run ./cmd/fftserved -shardselftest 128

# Fleet observability smoke: a loopback 3-worker cluster runs one traced
# sharded transform through the real HTTP surface, then the gate asserts
# the merged Perfetto timeline (/debug/trace/<id>) carries a distinct lane
# per node, the coordinator's scatter/gather spans and both sides of every
# peer pair's exchange chunks; that /metrics/fleet is a valid exposition
# with per-node labels and fft_build_info; and that /debug/flightrec
# retained the request under its trace ID.
tracesmoke:
	$(GO) run ./cmd/fftserved -traceselftest -roofline 10

# Every example end to end: each one checks its own answer and exits
# non-zero when it is wrong — examples/multisocket holds the in-process
# slab-pencil plan bitwise to the single-socket plan and its Fig. 8 traffic
# report to the byte.
examplesmoke:
	@set -e; for e in examples/*/; do echo "go run ./$$e"; $(GO) run ./$$e >/dev/null; done

# Ten seconds of each native fuzzer over the bytes that arrive from outside
# the process: the JSON /transform decoder differentially against
# encoding/json, one number token against the grammar and strconv.ParseFloat,
# a float64 bit pattern through the formatter against strconv.AppendFloat,
# the binary frame decoder against its acceptance rule (the two decoders
# also against serve's validation), a scraped peer exposition through the
# /metrics/fleet merge and back, a /shard/begin body through the JobSpec
# decoder and its validation, and
# any 1D size 1 … 65535 through the fft1d planner (round trip, Parseval and,
# up to 512, the direct DFT).
# The committed seed corpora (internal/{wire,obs}/testdata/fuzz) are
# replayed by plain `go test`; a crasher found here lands there as a new seed.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeTransformRequest$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzParseNumber$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzParseExposition$$' -fuzztime=10s ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzJobSpec$$' -fuzztime=10s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=10s ./internal/fft1d

# The ruler (BENCHMARK.json): every named workload's end-to-end and
# per-layer metrics, all outputs verified; performance claims are stated
# against it. See benchmark/README.md (`-workload`, `-seconds`, `-repeat`).
bench:
	$(GO) run ./benchmark

# One short pass of the ruler in ci: STREAM, the per-layer probes and one
# verified cache2d pass, so the one measuring program is proven to build and
# run to a zero exit. It measures nothing worth quoting at this length.
rulersmoke:
	$(GO) run ./benchmark -workload cache2d -seconds 1

# The serving layer with both vCPUs busy: one timed serve1d pass, then the
# traced pass that yields the serve.* layer metrics. The gate runs at
# GOMAXPROCS = nproc − 1 = 1, where two closed-loop clients share one thread
# and `do − execute` is mostly the other client's transform; plumbing shows
# only at GOMAXPROCS ≥ 2. Ungated on purpose: two busy vCPUs on a shared host
# measure the neighbours too, so these figures are recorded in EXPERIMENTS.md
# ("Serve without a dispatcher") and never claimed against BENCHMARK.json.
serveprobe:
	GOMAXPROCS=2 $(GO) run ./benchmark -workload serve1d -seconds 10 -trace 0
	GOMAXPROCS=2 $(GO) run ./benchmark -workload serve1d -seconds 10 -trace 1

# The stage-leg budget of the paper's regime, of cache2d's shape and of the
# real-input graphs: complex 256³, 4096², 2048² and 512², real 512×256×256
# (real3d) and real 4096², forward and inverse on one lane, per stage the
# load / compute / store milliseconds (µs resolution at 512², whose loads
# read "folded": the first sweep reads the source, inside compute; so do
# 256³'s and 4096²'s, whose codelets prefetch the next block, and whose
# stores read "folded" too: the last sweep writes the destination) from
# Observability() deltas, Σ legs beside the wall, and each stage's load +
# store beside the same run's streamed copy of two arrays. Medians of 5 runs,
# of 301 at 512² (a few seconds). Then the A/B of one lane's soft DMA: 256³
# and 4096² forward and inverse walls of the product beside the same plans
# under Ablation{CopyLoads: true} (copied loads, no prefetch) and under
# Ablation{NoFold: true} (the store leg kept), alternating round trips in one
# test binary (BenchmarkCopyLoads, ≈ 1.3 GiB peak).
# Ungated like serveprobe; a hot-path PR quotes its before/after table in
# EXPERIMENTS.md.
legprobe:
	GOMAXPROCS=1 $(GO) run ./cmd/fftbench -measured -legs -reps 5
	GOMAXPROCS=1 $(GO) test ./internal/bench -run '^$$' -bench '^BenchmarkCopyLoads$$' -benchtime 1x

# The same probe on two lanes beside one: at GOMAXPROCS = 2 every plan runs
# two lanes, each with the soft DMA where one lane has it (256³'s and 4096²'s
# loads and stores read "folded" on both; their forwards read 0.72× and 0.86×
# the same lanes without it, ten rounds on a 2-vCPU Xeon), and each
# direction's line adds per lane its Σ legs and its stage-barrier wait,
# which tile the wall. Ungated; EXPERIMENTS.md "Lanes" and "Soft DMA on every lane" record it with
# the one-lane walls beside.
laneprobe:
	GOMAXPROCS=2 $(GO) run ./cmd/fftbench -measured -legs -reps 5
	GOMAXPROCS=1 $(GO) run ./cmd/fftbench -measured -legs -reps 5

# Where a plan's first transform goes, on one thread: for complex 256³, real
# 512×256×256 and the direct 1D plan at 2²⁴, NewPlan and the first Forward
# beside a warm Forward, with the destination freshly allocated and with it
# written beforehand, and the pipelined plans' build lines and first-run
# pre-fault from Observability(). ≈ 1 GiB peak. Ungated like legprobe; a
# setup PR quotes it in EXPERIMENTS.md.
setupprobe:
	GOMAXPROCS=1 $(GO) run ./cmd/fftbench -measured -setup

# One dispatched Stockham stage at a time, on one thread: the radix-8 and
# radix-16 stages of 512² rows and cols, 256³ x- and y/z-pencils and n = 4096
# over a 256 KiB pipeline block, in ps per element (BenchmarkStage) — 512²'s
# first sweeps also out of place from a 4 MiB source, as they run with the
# load folded into them (the /src4MiB cases), and the last passes of 256³'s
# x- and y/z-pencils and of 4096²'s rows and cols with their store into a
# 256 MiB destination, folded into the pass (sink) beside the pass into the
# buffer plus the run-major streaming store (buffered+gather), the
# BenchmarkSinkStage cases; then the
# cached block store (BenchmarkScatterBlocks), including 512²'s rows and cols
# store geometries into a 4 MiB destination; then whole 1D transforms
# (BenchmarkExecute) in ns per element at 4096 beside 3·2¹⁰, 5·2¹⁰, 15·2¹⁰
# and the prime 4093, whose chains open with generic radix-3/5 or Bluestein
# stages. Ungated like the other probes; a codelet or store-kernel PR quotes
# it in EXPERIMENTS.md.
kernelprobe:
	GOMAXPROCS=1 $(GO) test ./internal/kernels -run '^$$' -bench Stage -count 5
	GOMAXPROCS=1 $(GO) test ./internal/layout -run '^$$' -bench ScatterBlocks -count 5
	GOMAXPROCS=1 $(GO) test ./internal/fft1d -run '^$$' -bench 'Execute/(4096|3072|5120|15360|4093)$$' -count 5

# The JSON codec alone, on one thread, in ms/op and ns per float64 value:
# DecodeJSON256 and DecodeJSON256Spaced (a space after each comma) decode
# http2d's 256² request, EncodeJSON256 encodes its N(0,1) values (mostly
# 0.ddd) and EncodeJSON256Reply what http2d's replies carry, the 256²
# forward of uniform [−1, 1) data (mostly ddd.ddd). Ungated like the other
# probes; a change to internal/wire quotes it in EXPERIMENTS.md.
wireprobe:
	GOMAXPROCS=1 $(GO) test ./internal/wire -run '^$$' -bench 'JSON256' -count 5

# The root package's go-test micro-benchmarks (figures, tables, public API).
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One-iteration pass over the transform benchmarks: catches benchmarks that
# no longer compile or crash without paying for a timed run.
benchsmoke:
	$(GO) test -run=NONE -bench='Fig|Table|PublicAPI|Lanes' -benchtime=1x -benchmem .

# End-to-end smoke of the serving daemon: start fftserved on a loopback
# port, fire concurrent mixed-shape requests over HTTP, verify round trips
# and the /healthz and metrics endpoints, then drain.
servesmoke:
	$(GO) run ./cmd/fftserved -selftest 64

# Observability smoke: the selftest scrapes its own /metrics and fails
# unless the Prometheus text exposition parses cleanly, carries the
# request counters and latency histogram, and reports finite per-stage
# bandwidth gauges for the plans the smoke requests built.
obssmoke:
	$(GO) run ./cmd/fftserved -selftest 16 -roofline 10

fmt:
	gofmt -l .

# Size of the system: hand-written non-test Go lines per package directory
# (generator sources included, the benchmark/ ruler excluded) with the total
# — the figure ROADMAP and CHANGES quote — the total of hand-written test
# lines outside benchmark/ (internal/core/coretest, the oracle only tests
# import, counts as test), and the lines of committed generated Go
# ("// Code generated" files) and assembly.
loc:
	@src=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/core/coretest/*' | xargs grep -L '^// Code generated' | sort); \
	for d in $$(echo "$$src" | xargs -n1 dirname | sort -u); do \
		printf '%6d  %s\n' $$(echo "$$src" | grep "^$$d/[^/]*$$" | xargs cat | wc -l) $$d; \
	done; \
	printf '%6d  total non-test Go (outside benchmark/)\n' $$(echo "$$src" | xargs cat | wc -l)
	@printf '%6d  total test Go (outside benchmark/)\n' $$(find . \( -name '*_test.go' -o -path './internal/core/coretest/*.go' \) ! -path './benchmark/*' | xargs grep -L '^// Code generated' | xargs cat | wc -l)
	@printf '%6d  generated Go\n' $$(find . -name '*.go' ! -path './benchmark/*' | xargs grep -l '^// Code generated' | xargs cat | wc -l)
	@printf '%6d  generated assembly (*.s)\n' $$(find . -name '*.s' -print0 | xargs -0 cat | wc -l)
