# Developer entry points; `make ci` mirrors .github/workflows/ci.yml.

.PHONY: ci build test examples kernel-fma sanitize race golden pool-odd audit audit-gate sym sym-gate trace trace-gate figures-gate trace-counts-gate analyze doc fmt clippy pricing-gate

# The workflow's steps in its order.
ci: build test examples kernel-fma sanitize race golden pool-odd audit-gate sym-gate
	$(MAKE) trace-gate figures-gate trace-counts-gate pricing-gate doc fmt clippy

build:
	cargo build --release

test:
	cargo test -q

# Every program in examples/, in release; a non-zero exit fails the target.
# apsp_study asserts that paper-scale APSP and LU runs verify.
examples:
	@for f in examples/*.rs; do \
		e=$$(basename $$f .rs); \
		echo "examples: $$e"; \
		cargo run -q --release --example $$e || { echo "examples: $$e failed" >&2; exit 1; }; \
	done

# The matmul kernel must stay bit-identical to the plain loop on a build
# where the compiler could contract multiply-adds into FMA. Needs a host
# with AVX2 and FMA; elsewhere it prints a notice and does nothing.
kernel-fma:
	@if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then \
		RUSTFLAGS="-C target-feature=+avx2,+fma" CARGO_TARGET_DIR=target/fma \
			cargo test -q -p pcm-algos --lib matmul; \
	else \
		echo "kernel-fma: this host lacks avx2 or fma; skipping"; \
	fi

sanitize:
	cargo test -q --test sanitizer

race:
	cargo test -q --test race

golden:
	cargo test -q --test golden

# The pooled executor at an odd width: uneven closure chunks (p mod 3 != 0)
# and the allocation-free hot path, including the family, recycling and
# analyzer bit-identity checks in tests/pooling.rs and the chunk-boundary
# exchange checks in tests/exchange_shard.rs.
pool-odd:
	RAYON_NUM_THREADS=3 cargo test -q --test pooling --test exchange_shard --test hotpath_alloc

# Static schedule audit: full sweep + machine-readable findings report.
audit:
	cargo run --release -p pcm-audit --bin pcm-audit -- --out AUDIT_report.json

# Audit drift gate: the regenerated report must match the committed one.
audit-gate: audit
	git diff --exit-code AUDIT_report.json

# Symbolic model verification: certify every closed form (units, domains,
# dominance, differential, leading terms, crossovers) + findings report.
sym:
	cargo run --release -p pcm-sym --bin pcm-sym -- --out SYM_report.json

# Symbolic drift gate: the regenerated report must match the committed one.
sym-gate: sym
	git diff --exit-code SYM_report.json

# Superstep tracing: replay the pinned grid with tracing on, prove exact
# cost attribution, regenerate TRACE_report.json and a Chrome/Perfetto
# trace (TRACE_chrome.json, not committed — it carries wall-clock args).
trace:
	cargo run --release -p pcm-trace --bin pcm-trace -- --export chrome

# Tracing gates: bit-identical attribution + zero perturbation, the
# zero-allocation hot path with tracing ON, and report drift.
trace-gate:
	cargo test -q --test trace
	cargo test -q --test hotpath_alloc
	cargo run --release -p pcm-trace --bin pcm-trace
	git diff --exit-code TRACE_report.json

# Figure digests: one pass of the kernels and exchange benchmark workloads
# renders every full-scale figure and checks its text against the digests
# pinned in perfbench/golden.txt. The last output line must report
# `"correct": true` and `"failed": 0`.
figures-gate:
	for w in kernels exchange; do \
		python3 perfbench/run.py --workload $$w --seconds 1 | tail -n 1 | python3 -c \
			'import json, sys; r = json.load(sys.stdin); sys.exit(r["correct"] is not True or r["failed"] != 0)' \
			|| { echo "figures-gate: the $$w workload did not verify against perfbench/golden.txt" >&2; exit 1; }; \
	done

# Traced exact counts: one traced run of the kernels, exchange and
# analyzers benchmark workloads. Its observer sees every machine only if
# each fanned-out sweep and kernel figure stays inside the observer's
# scope, so the pinned supersteps, send records and machine counts in
# perfbench/golden.txt must repeat exactly; the last output line must
# report `"correct": true` and `"failed": 0`.
trace-counts-gate:
	for w in kernels exchange analyzers; do \
		python3 perfbench/run.py --workload $$w --trace 1 --seconds 1 | tail -n 1 | python3 -c \
			'import json, sys; r = json.load(sys.stdin); sys.exit(r["correct"] is not True or r["failed"] != 0)' \
			|| { echo "trace-counts-gate: the traced $$w workload missed its pinned counts" >&2; exit 1; }; \
	done

# Every static analyzer in one pass.
analyze: sanitize race audit-gate sym-gate trace-gate figures-gate trace-counts-gate

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Route-memo differential gate: memo on vs off must be bit-identical, and
# the rewritten router must match the reference implementation.
pricing-gate:
	cargo test -q --test pricing_memo
	cargo test -q --test router_delta

fmt:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo clippy -p pcm-race --all-targets -- -D warnings
