# Developer entry points; `make ci` mirrors .github/workflows/ci.yml.

.PHONY: ci build test sanitize race golden shard audit audit-gate sym trace trace-gate analyze doc fmt clippy bench bench-smoke bench-scaling bench-pricing pricing-gate

ci: build test audit sym doc fmt clippy

build:
	cargo build --release

test:
	cargo test -q

sanitize:
	cargo test -q --test sanitizer

race:
	cargo test -q --test race

golden:
	cargo test -q --test golden

# Sharded-exchange bit-identity sweep (families x machines x shard counts).
shard:
	cargo test -q --test exchange_shard

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

# Every static analyzer in one pass.
analyze: sanitize race audit-gate sym trace-gate

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Criterion suites plus the recorded throughput report (BENCH_simulator.json).
bench:
	cargo bench
	cargo run --release -p pcm-bench --bin bench-report

# Fast sanity pass over every bench kernel; writes no report.
bench-smoke:
	cargo run --release -p pcm-bench --bin bench-report -- --smoke

# Smoke-mode thread-scaling ladder: re-executes the bench binary with
# RAYON_NUM_THREADS pinned to each rung; writes no report.
bench-scaling:
	cargo run --release -p pcm-bench --bin bench-report -- --smoke --scaling

# The pricing fast-path rows alone (route warm/cold per machine, router
# fast/slow path), full-length samples; writes no report.
bench-pricing:
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/MasPar
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_cold/MasPar
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/GCel
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/CM-5
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/router_fastpath/1024
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/router_slowpath/1024

# Route-memo differential gate: memo on vs off must be bit-identical, and
# the rewritten router must match the reference implementation.
pricing-gate:
	cargo test -q --test pricing_memo
	cargo test -q --test router_delta

fmt:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings
