#!/usr/bin/env sh
# Full local gate: formatting, lints as errors, and the whole test
# suite. CI and pre-commit both run exactly this.
#
#   scripts/check.sh           # the full gate
#   scripts/check.sh --tsan    # ThreadSanitizer pass over the fan-out
#                              # event-stream tests (needs nightly +
#                              # rust-src; skips gracefully)
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--tsan" ]; then
    # ThreadSanitizer needs an instrumented std (-Zbuild-std), hence
    # nightly with the rust-src component. Skip — not fail — when the
    # toolchain isn't available, so the mode is safe to wire anywhere.
    if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "tsan: nightly toolchain not installed; skipping"
        exit 0
    fi
    if ! rustup component list --toolchain nightly --installed 2>/dev/null \
            | grep -q '^rust-src'; then
        echo "tsan: rust-src not installed for nightly; skipping"
        exit 0
    fi
    host=$(rustc +nightly -vV | sed -n 's/^host: //p')
    # Every fan-out run drains the event buffer through its shared
    # (`Arc`) path: the staging vector is given to the workers and
    # staging restarts in a fresh one while they still read the old.
    echo "== tsan: event_stream fanout tests on $host"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        --test event_stream -- fanout
    # The guest crate carries the interior-mutable L0 page cache
    # (Cell-based, Send-not-Sync by design); run its unit tests under
    # the sanitizer too so a future Sync impl can't slip a race in.
    echo "== tsan: darco-guest unit tests on $host"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p darco-guest
    echo "tsan checks passed"
    exit 0
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

echo "== cargo test -q --release --test event_stream --test event_stream_golden --test properties"
cargo test -q --release --test event_stream --test event_stream_golden --test properties

# The event bus writes its staging slots by index and sends oversize
# streams through a side buffer; that arithmetic, the single pass of
# `SinkSet` and the shared (`Arc`) drain must hold as optimised too.
echo "== cargo test -q --release -p darco-host -p darco-core"
cargo test -q --release -p darco-host -p darco-core

# The guest layer's block dispatch loop (bounds, budget and cursor
# arithmetic) must hold as optimised, not only with overflow checks and
# debug_assert! on; its chunking property test is in `properties` above.
echo "== cargo test -q --release -p darco-guest"
cargo test -q --release -p darco-guest

# The timing hot path must compute the same thing with overflow checks
# and debug_assert! compiled out (its differential test runs here too).
echo "== cargo test -q --release -p darco-timing"
cargo test -q --release -p darco-timing

# So must the translator's index-and-shift dataflow (bitsets, dense
# register arrays): its reference-model test and its unit tests run
# here without the debug build's checks to lean on.
echo "== cargo test -q --release -p darco-tol"
cargo test -q --release -p darco-tol

echo "== cargo test -q --release --manifest-path benchmark/Cargo.toml"
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "== benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

echo "all checks passed"
