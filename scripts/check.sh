#!/usr/bin/env sh
# Full local gate: formatting, lints as errors, and the whole test
# suite. CI and pre-commit both run exactly this.
set -eu

cd "$(dirname "$0")/.."

# Mechanisms the switch audits deleted (DESIGN.md §15) stay deleted: a
# revert must not bring a switch back without anyone noticing. The
# names may only appear in DESIGN.md's "Removed mechanisms" section, in
# the history files (CHANGELOG.md, CHANGES.md, EXPERIMENTS.md, ROADMAP.md),
# in the CLI test that pins the removed flags and commands as unknown, in
# the pass reference that round 8 moved out of production (one of its
# tests is named after the BBM peephole, whose switch round 12 merged),
# and in the one property test whose name predates the audit. Round 9
# names identifiers of the criterion layer, not the word: "criterion" is
# ordinary English in the manuals. Round 15 names the removed commands
# and examples as they were invoked. Round 14 is reserved for the audit
# of the test-only references; round 16 names the timing model's owner
# keys, which the component key replaced; round 17 the CLI flag that
# turned the co-simulation checker on, now that every run is checked;
# round 18 the translator's private code-cache cursor and the controller's
# timeline marks on the bus, now that the code cache and the timing sink
# hold those facts; round 19 the chaining switch, the event buffer's
# by-value append and its write over a boundary slot, now that the layer
# always chains and the buffer stages retirements only; round 20 the
# cache and PLRU paths for associativities no Table I level has, and the
# guest and engine entry points that nothing called; round 21 the TLB's
# outcome type, the second access type and the accessors that restated
# a snapshot, now that the TLB returns its latency and the callers read
# `Pipeline::snapshot`, `CodeCache::health` and `Tol::summary`; round 22
# the compile path's outcome enum, per-pass samples and their merge, the
# second name of the mode type and the timing sink's window-start type,
# now that `compile_sb` returns a `Result`, the pass manager tallies
# per pipeline entry and `Mode` and `Window` say it once.
# The host-configuration guard names the configurable host and its
# validator, which Table I's constants replaced.
echo "== removed switches stay removed"
round2='timing_backend|TimingBackendKind|TimingBackend\b|FanoutTiming|wants_shared|consume_shared|job_backend|retire_templates|interp_templates|exec_block_rederive|guest_fast_path|flat_mem|mem_shortcuts|Store::Legacy|event_batch|timing-backend|guest-fast-path|bench_report|bench\.sh'
round3='Interaction::|TimingConfig::isolated|\.interaction\b|CachePolicy|cache_policy|cache-policy|EvictCause|with_policy|opt_const_prop|opt_const_fold|check_translation'
round4='opt_deadflags|opt_rangesimp|deadflags::|rangesimp|knownbits|liveness::|analyze_region_text|translate_region_with|eager_flags|flags_killed|branches_folded|DeadFlags|BranchFold|analysis_ns'
round5='emission_shape|interp_step_shaped|interp_step_keyed|AddrRecipe|fn h_[a-z_]+\('
round6='L0_WAYS|L0Entry|L0_EMPTY'
round7='ModeEnter|IbtcResolve|CacheInsert|TranslationKind|ExecMode|HostEvent::(Translated|Chained|Evict|Unchain)|trace_stats_serialized_fields|mode_enters|\.emitted\b'
round8='verify_failures|verified_blocks|tv_differential|tv_symbolic|passes_checked|VerifyStats|SbOutcome::Miscompile|OptError::Miscompile|optimize_stats|darco_tol::verify|tol\.verify\b'
round9='criterion_group|criterion_main|darco_bench::|record_stream|replay_sink|cargo bench'
round10='evict_block|note_smc_eviction|Evicted\b|smc_evictions|\bunchains\b|free_slots|alloc_slot|fn invalidate|fn unchain|fn evict\b|sb_max_bbs|sb_max_insts|sb_edge_bias'
round11='RunConfig|darco-bench\b|run_set_parallel|max_guest_insts|static_total|dynamic_total|CARGO_BIN_EXE_figures'
round12='opt_constprop|opt_cse\b|opt_dce|bbm_peephole'
round13='partial_cycle|count_hit|btb_tags|btb_targets|tlb_walks|sw_prefetches|l1_miss_rate'
round15='darco trace|darco timeline|characterize_tol|interaction_study|example quickstart'
round16='OwnerMemStats|owner_stats|owner_idx|record_branch|l2_miss'
round17='--cosim'
round18='emit_cursor|WindowMark|last_window'
round19='\.chaining\b|chaining:|retire_over|fn push\(&mut self, e: HostEvent'
round20='probe_set_any|TOUCH2|VICTIM2|fn disassemble\(|eval_flags|pub fn exec_decoded|pub fn guest_pc'
round21='TlbOutcome|DataAccess|InstAccess|fn finish\(self\)|fn counters\(&self\)|fn used\(&self\)|fn resident\(&self\)'
round22='SbOutcome|PassSample|merge_delta|StaticMode|WindowStart'
host_config='TimingConfig|TimingConfigError'
removed="$round2|$round3|$round4|$round5|$round6|$round7|$round8|$round9|$round10|$round11|$round12|$round13|$round15|$round16|$round17|$round18|$round19|$round20|$round21|$round22|$host_config"
kept_test='guest_fast_path_matches_oracle_per_step'
if grep -rnE "$removed" crates src tests examples scripts .github .claude README.md \
        | grep -v -e '^scripts/check.sh:' -e '^crates/cli/tests/cli.rs:' \
            -e '^crates/tol/tests/pass_reference/' -e "$kept_test"; then
    echo "error: a removed switch is back (see DESIGN.md §15)" >&2
    exit 1
fi
if sed '/^## 15\. Removed mechanisms/,/^## 16\. /d' DESIGN.md \
        | grep -nE "$removed" | grep -v "$kept_test"; then
    echo "error: DESIGN.md names a removed switch outside §15" >&2
    exit 1
fi

# JSON enters the program in one place, `darco run --profile`: only the
# profile types in crates/workloads/src/profile.rs derive `Deserialize`.
if grep -rnE 'derive\([^)]*Deserialize' crates src tests examples \
        | grep -v '^crates/workloads/src/profile.rs:'; then
    echo "error: Deserialize derived outside crates/workloads/src/profile.rs" >&2
    exit 1
fi

# Guest memory is a page table (DESIGN.md §16): no hash map in front of,
# behind or beside it.
if grep -n 'HashMap' crates/guest/src/mem.rs; then
    echo "error: crates/guest/src/mem.rs names HashMap (see DESIGN.md §16)" >&2
    exit 1
fi

# Guest memory is allocated in 1 KiB frames (DESIGN.md §16): a page the
# guest barely wrote must not cost a whole 4 KiB frame again.
if grep -nE '\[(u8|0u8|0); *(PAGE_SIZE|4096)\]' crates/guest/src/mem.rs; then
    echo "error: crates/guest/src/mem.rs allocates a whole page as one frame (see DESIGN.md §16)" >&2
    exit 1
fi

# Static modes live in per-page byte tables (DESIGN.md §4 "Profiler"),
# not in a hash map entry per static instruction.
if grep -n 'PcMap<Mode>' crates/tol/src/profile.rs; then
    echo "error: crates/tol/src/profile.rs keys static modes by pc (see DESIGN.md §4)" >&2
    exit 1
fi

# Superblock formation stops at SB_MAX_BBS blocks, so it tests its
# block entries with a scan of a fixed array (DESIGN.md §4), not a set.
if grep -n 'HashSet' crates/tol/src/superblock.rs; then
    echo "error: crates/tol/src/superblock.rs names HashSet (see DESIGN.md §4)" >&2
    exit 1
fi

# A pin is golden text (tests/common/golden.rs) that names the field
# that moved. The pins too long to commit as text keep one digest, the
# FNV-1a of tests/common/fnv.rs: no file grows a digest of its own.
if grep -rnE 'cbf2_?9ce4_?8422_?2325|0100_?0000_?01b3|100000001b3|struct Fnv|fn fnv' \
        crates src tests examples shims benchmark/src \
        | grep -v '^tests/common/fnv.rs:'; then
    echo "error: an FNV digest outside tests/common/fnv.rs (pins are golden text)" >&2
    exit 1
fi

# The host ISA is declared once (DESIGN.md §4): the IR is
# `darco_host::Inst` over virtual registers, not an enum that mirrors it.
if grep -rn 'enum IrInst' crates src tests examples; then
    echo "error: an IR instruction enum is back (the IR is darco_host::Inst, DESIGN.md §4)" >&2
    exit 1
fi

# A miscompile can make a guest loop spin forever in a run without
# co-simulation. Every test command therefore runs under `timeout`, at
# about ten times its wall on a 2-vCPU host, build included (the debug
# suite ~1.5 min, each release command under 1 min), so such a bug fails
# the gate instead of hanging it.

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "== RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release --workspace"
cargo build --release --workspace

# Translated code calls `darco_host::exec_inst` once per host instruction
# from another crate, and the build has no LTO: the function is
# `#[inline]` so that its match compiles into the translated-block loop
# (DESIGN.md §10). A symbol of its own in the binary means a call per
# host instruction again.
echo "== exec_inst is inlined: no symbol of its own in target/release/darco"
if nm -C target/release/darco | grep -E 'darco_host::state::exec_inst($|[^_[:alnum:]])'; then
    echo "error: darco_host::state::exec_inst is out of line (see DESIGN.md §10)" >&2
    exit 1
fi

# The paper-facing output is pinned byte for byte: a change that moves
# a figure must regenerate the file and say why.
echo "== darco figures all | cmp - figures_output.txt"
target/release/darco figures all | cmp - figures_output.txt

echo "== cargo test -q --workspace"
timeout 900 cargo test -q --workspace

# The golden text of the translator's output, of the event stream and
# of the serialized reports, the no-dead-knob test (every TolConfig switch
# moves the cycle count), the property tests and the per-opcode boundary
# cases must hold as optimised too.
echo "== cargo test -q --release --test translation_golden --test event_stream_golden --test report_golden --test extensions --test properties --test opcode_boundary"
timeout 600 cargo test -q --release --test translation_golden --test event_stream_golden --test report_golden --test extensions --test properties --test opcode_boundary

# The guest layer's block dispatch loop (bounds, budget and cursor
# arithmetic) must hold as optimised, not only with overflow checks and
# debug_assert! on; its chunking property test is in `properties` above.
# So must the page table: `--test mem_reference`, one of this package's
# targets, holds `GuestMem` to a `BTreeMap` model after every operation.
echo "== cargo test -q --release -p darco-guest (unit tests + mem_reference)"
timeout 600 cargo test -q --release -p darco-guest

# The event bus writes its staging slots by index, all of them made when
# a buffer is built, and a stream must fit one batch; that arithmetic and
# the single pass of `SinkSet` must hold as optimised too.
echo "== cargo test -q --release -p darco-host -p darco-core"
timeout 600 cargo test -q --release -p darco-host -p darco-core

# The timing hot path must compute the same thing with overflow checks
# and debug_assert! compiled out (its differential tests run here too).
echo "== cargo test -q --release -p darco-timing"
timeout 600 cargo test -q --release -p darco-timing

# So must the passes' index-and-shift containers (the `RegSet` bitset,
# the `RegVec` array map), retirement by template and the optimization
# passes: `tests/regset_reference.rs`, `tests/pass_reference/` (each
# pass held to structural invariants and translation validation) and
# the unit tests run here without the debug build's checks to lean on.
echo "== cargo test -q --release -p darco-tol"
timeout 600 cargo test -q --release -p darco-tol

echo "== cargo test -q --release --manifest-path benchmark/Cargo.toml"
timeout 600 cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "== benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

echo "all checks passed"
