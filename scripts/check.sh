#!/usr/bin/env sh
# Full local gate: formatting, lints as errors, and the whole test
# suite. CI and pre-commit both run exactly this.
set -eu

cd "$(dirname "$0")/.."

# Mechanisms the switch audits deleted (DESIGN.md §15) stay deleted: a
# revert must not bring a switch back without anyone noticing. The
# names may only appear in DESIGN.md's "Removed mechanisms" section, in
# the history files (CHANGELOG.md, CHANGES.md, EXPERIMENTS.md, ROADMAP.md),
# in the CLI test that pins the removed flags as unknown, and in the one
# property test whose name predates the audit.
echo "== removed switches stay removed"
round2='timing_backend|TimingBackendKind|TimingBackend\b|FanoutTiming|wants_shared|consume_shared|job_backend|retire_templates|interp_templates|exec_block_rederive|guest_fast_path|flat_mem|mem_shortcuts|Store::Legacy|event_batch|timing-backend|guest-fast-path|bench_report|bench\.sh'
round3='Interaction::|TimingConfig::isolated|\.interaction\b|CachePolicy|cache_policy|cache-policy|EvictCause|with_policy|opt_const_prop|opt_const_fold|check_translation'
round4='opt_deadflags|opt_rangesimp|deadflags::|rangesimp|knownbits|liveness::|analyze_region_text|translate_region_with|eager_flags|flags_killed|branches_folded|DeadFlags|BranchFold|analysis_ns'
round5='emission_shape|interp_step_shaped|interp_step_keyed|AddrRecipe|fn h_[a-z_]+\('
round6='L0_WAYS|L0Entry|L0_EMPTY'
removed="$round2|$round3|$round4|$round5|$round6"
kept_test='guest_fast_path_matches_oracle_per_step'
if grep -rnE "$removed" crates src tests examples scripts .github .claude README.md \
        | grep -v -e '^scripts/check.sh:' -e '^crates/cli/tests/cli.rs:' -e "$kept_test"; then
    echo "error: a removed switch is back (see DESIGN.md §15)" >&2
    exit 1
fi
if sed '/^## 15\. Removed mechanisms/,/^## 16\. /d' DESIGN.md \
        | grep -nE "$removed" | grep -v "$kept_test"; then
    echo "error: DESIGN.md names a removed switch outside §15" >&2
    exit 1
fi

# Guest memory is a page table (DESIGN.md §16): no hash map in front of,
# behind or beside it.
if grep -n 'HashMap' crates/guest/src/mem.rs; then
    echo "error: crates/guest/src/mem.rs names HashMap (see DESIGN.md §16)" >&2
    exit 1
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release --workspace"
cargo build --release --workspace

# The paper-facing output is pinned byte for byte: a change that moves
# a figure must regenerate the file and say why.
echo "== figures all | cmp - figures_output.txt"
target/release/figures all | cmp - figures_output.txt

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo bench --workspace --no-run"
cargo bench --workspace --no-run

# The digests of the event stream and of the serialized reports, the
# no-dead-knob test (every TolConfig switch moves the cycle count), the
# property tests and the per-opcode boundary cases must hold as
# optimised too.
echo "== cargo test -q --release --test event_stream_golden --test report_golden --test extensions --test properties --test opcode_boundary"
cargo test -q --release --test event_stream_golden --test report_golden --test extensions --test properties --test opcode_boundary

# The guest layer's block dispatch loop (bounds, budget and cursor
# arithmetic) must hold as optimised, not only with overflow checks and
# debug_assert! on; its chunking property test is in `properties` above.
# So must the page table: `--test mem_reference`, one of this package's
# targets, holds `GuestMem` to a `BTreeMap` model after every operation.
echo "== cargo test -q --release -p darco-guest (unit tests + mem_reference)"
cargo test -q --release -p darco-guest

# The event bus writes its staging slots by index and sends oversize
# streams through a side buffer; that arithmetic and the single pass of
# `SinkSet` must hold as optimised too.
echo "== cargo test -q --release -p darco-host -p darco-core"
cargo test -q --release -p darco-host -p darco-core

# The timing hot path must compute the same thing with overflow checks
# and debug_assert! compiled out (its differential tests run here too).
echo "== cargo test -q --release -p darco-timing"
cargo test -q --release -p darco-timing

# So must the passes' index-and-shift containers (the `RegSet` bitset,
# the `RegVec` array map) and retirement by template:
# `tests/regset_reference.rs` — the only reference-model tests left in
# this crate — and the unit tests run here without the debug build's
# checks to lean on.
echo "== cargo test -q --release -p darco-tol"
cargo test -q --release -p darco-tol

echo "== cargo test -q --release --manifest-path benchmark/Cargo.toml"
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "== benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

echo "all checks passed"
