#!/usr/bin/env bash
# Tier-1 gate, fully offline: the workspace has no external
# dependencies, so every step runs with networking disabled.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# A dangling intra-doc link (a doc comment naming a deleted item) fails
# here instead of confusing a later reader.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# One module may say `unsafe`: the SHA-NI kernel and its dispatch
# (DESIGN.md §4.2). Ten crates `forbid` it; this catches the eleventh
# growing a second `#[allow(unsafe_code)]`.
echo "==> unsafe boundary (exactly one .rs file under crates/ and src/ contains the word)"
test "$(grep -rlw --include='*.rs' unsafe crates src)" = crates/crypto/src/sha256/shani.rs

# Two files may read the host clock: `micro`'s timer loop and the two
# stage durations `Peer` hands to perf/ (DESIGN.md §4.10). Every other
# host-time figure is measured from outside, by perf/.
echo "==> host-clock boundary (exactly two .rs files under crates/ and src/ name Instant)"
test "$(grep -rlw --include='*.rs' Instant crates src | sort)" = "crates/bench/benches/micro.rs
crates/fabric/src/peer.rs"

# No file may take a lock. Each peer still has one commit path on one
# thread — Algorithm 1 parses inline, with no process-wide cache, and
# finalize is one sequential pass over a clone of the committed state,
# published whole at commit (DESIGN.md §4.4) — and a channel's pipeline
# owns its replicas, so concurrent channels share nothing to lock
# (DESIGN.md §4.8).
echo "==> lock boundary (no .rs file under crates/ or src/ names Mutex or RwLock)"
test -z "$(grep -rlw --include='*.rs' -e Mutex -e RwLock crates src)"

# One file may start a thread: the multi-channel driver, which runs each
# channel's pipeline on a thread of its own and joins them all before it
# returns (DESIGN.md §4.8). Test directories are not counted: a test may
# start a reader thread to prove a type is `Send`.
echo "==> thread boundary (exactly one non-test .rs file under crates/ and src/ names thread::scope or thread::spawn)"
test "$(grep -rlE --include='*.rs' --exclude-dir=tests 'thread::(scope|spawn)' crates src)" = crates/channel/src/driver.rs

# Only `core` connects the EOV pipeline to the CRDT (DESIGN.md §2): the
# kernel, hashing, ledger, pipeline and replication crates reach no
# `jsoncrdt` through a normal dependency edge, direct or transitive.
# The tree is captured first so `grep` cannot cut `cargo tree` short.
echo "==> crate-graph boundary (no EOV crate depends on fabriccrdt-jsoncrdt)"
for crate in sim crypto ledger fabric gossip ordering; do
    tree=$(cargo tree --offline -q -e normal -p "fabriccrdt-$crate")
    if grep -q fabriccrdt-jsoncrdt <<<"$tree"; then
        echo "fabriccrdt-$crate depends on fabriccrdt-jsoncrdt:" >&2
        echo "$tree" >&2
        exit 1
    fi
done

# Every `fabriccrdt-*` entry under a manifest's `[dependencies]` is
# named as `fabriccrdt_*` in that package's sources, so an edge nothing
# uses cannot linger after the code that needed it goes. A package's
# sources are its `src/`; the bench package adds `benches/`, and the
# root package, a library with no binary, is `src/`, `examples/` and
# `tests/`.
echo "==> dependency edges (every fabriccrdt-* dependency is named in its package's sources)"
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    case $dir in
        .) sources="src examples tests" ;;
        crates/bench) sources="$dir/src $dir/benches" ;;
        *) sources="$dir/src" ;;
    esac
    deps=$(awk '/^\[/ { in_deps = ($0 == "[dependencies]") }
        in_deps && /^fabriccrdt/ { sub(/[ .=].*/, ""); print }' "$manifest")
    for dep in $deps; do
        # shellcheck disable=SC2086 # $sources is a list of directories
        if ! grep -rqE --include='*.rs' "(^|[^a-z_-])${dep//-/_}([^a-z_-]|\$)" $sources; then
            echo "$manifest: $dep is never named in $sources" >&2
            exit 1
        fi
    done
done

# A transaction list is hashed once per allocation: `Transactions`
# keeps its payload digests and data hash, filled by the one
# `get_or_init` in `ledger/src/block.rs`, which hashes the list's own
# contents and takes no digest from outside. The orderer's cut fills it
# (`Block::assemble`); every replica sharing that list reads it at
# ingress (`fabric/src/peer.rs`), in its endorsement MACs and in the
# re-seal (`SealedBlock::seal`), which hashes only the commit record
# unless a validator put a fresh list of its own in the block. A decoded
# block or a forgery is a fresh list and is hashed from scratch
# (DESIGN.md §4.2). These are the files that name the pass
# (`data_hash_is_valid`, `Transactions::data_hash`), so a new caller
# cannot appear without this list changing; the second check keeps the
# fill in one place.
echo "==> hashing boundary (the .rs files under crates/ and src/ that name a data-hash pass)"
test "$(grep -rlE --include='*.rs' 'data_hash_is_valid|\bdata_hash\(' crates src | LC_ALL=C sort)" = "crates/bench/benches/micro.rs
crates/core/tests/hashing_doors.rs
crates/fabric/src/peer.rs
crates/gossip/src/adversary.rs
crates/gossip/src/network/tests/mod.rs
crates/ledger/src/block.rs
crates/ledger/src/chain.rs
crates/ledger/tests/format_v3.rs
crates/ledger/tests/properties.rs"
echo "==> list-memo boundary (hashed.get_or_init appears only in crates/ledger/src/block.rs)"
test "$(grep -rlF --include='*.rs' 'hashed.get_or_init' crates src)" = crates/ledger/src/block.rs

# A block's transactions are one immutable list that every clone of the
# block shares (`ledger::block::Transactions`, DESIGN.md §4.5): a
# replica commits the allocation the orderer cut. Code that needs a list
# of its own copies it explicitly, and these are the non-test files that
# do: the adversary's forgeries, and the one conversion to a `Vec`
# (`From<Transactions>`, which `reorder_batch` takes its batch through).
# Files are cut at their first `#[cfg(test)]`.
echo "==> transaction-list boundary (the non-test .rs files under crates/ and src/ that copy a block's transactions)"
test "$(find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | LC_ALL=C sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && /transactions\.to_vec\(\)/ { print FILENAME }' | uniq)" = "crates/gossip/src/adversary.rs
crates/ledger/src/block.rs"

# A ledger layout is written once, against `codec::ByteSink`, whose
# `u64` is the one big-endian integer writer the stored formats share
# (DESIGN.md §4.2). Besides it only the block-header hash and
# `TxId::derive` turn an integer into bytes, so a second, hand-written
# length prefix cannot come back without this list changing. Files are
# cut at their first `#[cfg(test)]`, as for the panic-site count below.
echo "==> byte-layout boundary (the non-test .rs files under crates/ledger/src that write a big-endian integer)"
test "$(find crates/ledger/src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && /to_be_bytes/ { print FILENAME }' | uniq)" = "crates/ledger/src/block.rs
crates/ledger/src/codec.rs
crates/ledger/src/transaction.rs"

# A block record's footer is the prefix of its block hash, which ingress
# and the re-seal already bound to every stored byte, so the store hashes
# no transaction or record byte (DESIGN.md §4.7, §4.2). SHA-256 runs
# over a snapshot payload only: these are the non-test functions of
# store.rs that call `digest(`, or `snapshot_footer(`, the one that does.
echo "==> store-hashing boundary (in ledger/src/store.rs, digest( is reached only on the snapshot path)"
test "$(awk '
    /#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
    /(^|[^.a-z_])(digest|snapshot_footer)\(/ { print name }' crates/ledger/src/store.rs | uniq)" = "snapshot_footer
valid_record
put_snapshot"

# A ledger snapshot is a root — a world state and a sorted id list —
# and its bytes exist only at the store and on the wire (DESIGN.md
# §4.7): `LedgerSnapshot`'s layout writes them, `from_bytes` parses
# them. These are the non-test files that name a snapshot component's
# codec; no `fabric` file, `peer.rs` included, may join them.
echo "==> snapshot-codec boundary (the non-test .rs files that name decode_state, decode_txids or encode_txids)"
test "$(find crates src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && /decode_state|decode_txids|encode_txids/ { print FILENAME }' | uniq)" = "crates/ledger/src/codec.rs
crates/ledger/src/store.rs"

# When a partition is in force, and whom it separates, is written once,
# on `FaultConfig` (`partitioned`, `cut_off`), and gossip and Raft both
# read it there (DESIGN.md §4.5).
echo "==> fault-window boundary (in non-test code, minority.contains( appears only in fabric/src/config.rs)"
test "$(find crates src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && /minority\.contains\(/ { print FILENAME }' | uniq)" = crates/fabric/src/config.rs

# An endorsement is a MAC of its payload's digest (DESIGN.md §4.2):
# the endorsers' client hashes a response payload once, in
# `Simulation::endorse`, and a peer verifies from the digest its ingress
# check hashed, the one the list keeps beside its leaf. This prints every non-test function under
# crates/fabric/src that reads a response payload or signs or verifies a
# message whole, so a second payload pass cannot come back unseen.
echo "==> payload-digest boundary (the one non-test fabric function that hashes a response payload)"
test "$(find crates/fabric/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && match($0, /fn [a-z_0-9]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
    !cut && /response_payload|\.(sign|verify)\(/ { print FILENAME ": " name }')" = "crates/fabric/src/simulation.rs: endorse"

# The figure every CHANGES.md entry quotes (ROADMAP's command), then the
# same files cut at their first `#[cfg(test)]`: the first still counts
# in-module test code, the second does not. Printed, not gated. Third,
# ROADMAP item 5's panic-site count over the second figure's lines
# outside crates/bench: it may fall, never rise.
cut_at_tests() { xargs awk 'FNR == 1 { cut = 0 } /#\[cfg\(test\)\]/ { cut = 1 } !cut'; }
echo "==> non-test lines (ROADMAP's command; then without in-module tests; then panic sites)"
find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | xargs cat | wc -l
find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | cut_at_tests | wc -l
panic_sites=$(find crates/*/src src -name '*.rs' -not -path '*/tests/*' -not -path 'crates/bench/*' |
    cut_at_tests | grep -cE 'unwrap\(\)|expect\(|panic!' || true)
echo "$panic_sites"
test "$panic_sites" -le 33

# Every settable value multiplies the configurations tests and
# benchmarks must cover, so a value nothing varies is a constant beside
# its reader (DESIGN.md §4.5, §4.6). This counts the `pub` fields of the
# 17 structs reachable from `PipelineConfig` and `MultiChannelConfig`:
# it may fall, never rise. The awk also counts the structs it found, so
# a renamed or moved struct fails here instead of dropping out.
echo "==> options (pub fields of the 17 run-configuration structs)"
read -r config_structs options < <(awk '
    /^pub struct (Topology|BlockCutConfig|GossipConfig|RaftConfig|RetryPolicy|LinkFaults|CrashSpec|PartitionSpec|AttackSpec|AdversaryConfig|FaultConfig|PipelineConfig|LatencyConfig|CostModel|StorageConfig|ChannelSpec|MultiChannelConfig) \{/ {
        structs++; inside = 1; next
    }
    inside && /^}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { fields++ }
    END { print structs + 0, fields + 0 }' crates/fabric/src/*.rs)
echo "$options"
test "$config_structs" -eq 17
test "$options" -le 53

# The documents a contributor reads before changing anything; ROADMAP
# item 7 tracks their size. EXPERIMENTS.md, DESIGN.md and the verify
# skill may shrink, never grow; CHANGES.md has its own cap. The skill
# names this script as the gate instead of restating its checks, so a
# gate changes here alone.
echo "==> document words"
wc -w EXPERIMENTS.md DESIGN.md CHANGES.md .claude/skills/verify/SKILL.md
test "$(wc -w < EXPERIMENTS.md)" -le 8654
test "$(wc -w < DESIGN.md)" -le 8850
test "$(wc -w < .claude/skills/verify/SKILL.md)" -le 1041

# DESIGN.md describes the tree as it stands. Every backticked path in it
# (`a::b`, each name of a `{…}` group) and every backticked call (`f()`)
# must name a word found under crates/, src/ or perf/src, so a rename or
# a deletion that leaves the document behind fails here.
echo "==> DESIGN.md names (each backticked path segment and call is a word in the sources)"
design_names=$(tr '\n' ' ' <DESIGN.md | grep -o '`[^`]*`' |
    grep -oE '\b[A-Za-z_][A-Za-z0-9_]*(::([A-Za-z_][A-Za-z0-9_]*|\{[^}]*\}))+|\b[A-Za-z_][A-Za-z0-9_]*\(' |
    sed -e 's/($//' -e 's/::/\n/g' | tr -d '{}' | tr ',' '\n' |
    sed -e 's/^ *//' -e 's/[^A-Za-z0-9_].*//' | grep . | LC_ALL=C sort -u)
missing_names=$(LC_ALL=C comm -23 <(echo "$design_names") \
    <(grep -rhowF -e "$design_names" crates src perf/src | LC_ALL=C sort -u))
if [ -n "$missing_names" ]; then
    echo "DESIGN.md names what no file under crates/, src/ or perf/src does:" $missing_names >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The hashing kernel as the benchmark builds it: `target_feature`
# inlining differs between the debug build above and `--release`.
# `--nocapture` shows which kernel the run exercised; a CPU that lists
# `sha_ni` while the hardware half of a test skipped fails
# `detection_agrees_with_cpuinfo` instead of passing quietly.
echo "==> cargo test --release (crypto: both SHA-256 kernels, optimised)"
cargo test -q --release -p fabriccrdt-crypto -- --nocapture

# The world-state map as the benchmark builds it, against its
# `BTreeMap` oracle, and chain history against the per-key index it
# replaced, at full count (the debug run above covers a sixth of the
# seeds).
echo "==> cargo test --release (ledger: world-state and history differentials, full count)"
cargo test -q --release -p fabriccrdt-ledger

# Algorithm 2's lockstep walk as the benchmark builds it, against the
# operation-per-node engine the test tree keeps as its oracle; the byte
# walk (`merge_bytes`) against the parsed merge, on generated
# normal-form documents and mutations of them, which it must take as the
# parser does or leave with the document untouched; the singleton walk
# against a merge into an empty document; and the proofs of the as-is
# recogniser (sound over generated and mutated bytes, complete over
# every escape-free singleton walk), at full count (likewise a sixth
# above).
echo "==> cargo test --release (jsoncrdt: merge and byte-walk differentials, as-is proofs, full count)"
cargo test -q --release -p fabriccrdt-jsoncrdt

# The key-node reorder as the benchmark builds it, against the pair
# graph it replaced, at full count (likewise a sixth above).
echo "==> cargo test --release (fabric: reorder differential, full count)"
cargo test -q --release -p fabriccrdt-fabric --test reorder_differential

# Algorithm 1 with singleton keys taken alone, or as they came when the
# recogniser takes them, and normal-form documents merged unparsed,
# against the pass that parsed every value and built a CRDT for every
# key; members between plain writes, opaque values and deletes, whose
# commit moves only a version when the key still holds the previous
# member's value, must leave the oracle's codes, values, versions and
# work counters, at full count (likewise a sixth above).
echo "==> cargo test --release (core: singleton differential, full count)"
cargo test -q --release -p fabriccrdt --test singleton_differential

# Smoke-run the commands of the one `bench` binary with tiny configs:
# they assert their own invariants (convergence, byte-identical ledgers,
# failover recovery), so a panic here fails the gate. Their stdout is a
# pure function of the seed (simulated time only), so each run is also
# held to the SHA-256 recorded in tests/golden/bin_stdout.sha256: "every
# table bit-identical to the parent" is checked here, not by hand. A PR
# that legitimately changes a table re-records its line (the failure
# message prints it) and says so in CHANGES.md.
smoke() { # <experiment> [args...]
    local out line
    out=$(mktemp)
    cargo run --release -q -p fabriccrdt-bench --bin bench -- "$@" | tee "$out"
    line="$(sha256sum <"$out" | cut -d' ' -f1)  $*"
    rm -f "$out"
    if ! grep -qxF -- "$line" tests/golden/bin_stdout.sha256; then
        echo "stdout changed: tests/golden/bin_stdout.sha256 has no line '$line'" >&2
        exit 1
    fi
}

# Tables 1-5 / Figures 3-7: the simulated-time numbers ROADMAP aim 1
# says must not move.
echo "==> paper tables (stdout digests against tests/golden/bin_stdout.sha256)"
for experiment in fig3 fig4 fig5 fig6 fig7 tables; do
    smoke "$experiment" --txs 300
done

# One experiment cell and the base cell on all three systems, the
# commands a reader runs first.
echo "==> experiment and compare (stdout digests against tests/golden/bin_stdout.sha256)"
smoke experiment --txs 300
smoke compare --txs 300

# A chain file is the one artifact another program reads back, so its
# bytes are held to a digest, and `verify-chain` must accept what
# `export-chain` wrote. Its stdout names the file, so it is not smoked.
echo "==> export-chain / verify-chain round trip"
chain=$(mktemp)
cargo run --release -q -p fabriccrdt-bench --bin bench -- export-chain "$chain" --txs 120
digest=$(sha256sum <"$chain" | cut -d' ' -f1)
if [ "$digest" != a6fdeed5f610771c332e31b95e4287349e28001b382e17e7988de52627a51c4f ]; then
    echo "export-chain --txs 120 wrote a file with SHA-256 $digest" >&2
    exit 1
fi
cargo run --release -q -p fabriccrdt-bench --bin bench -- verify-chain "$chain"
rm -f "$chain"

echo "==> extension smoke runs (stdout digests against tests/golden/bin_stdout.sha256)"
smoke partition_heal
smoke orderer_failover --txs 300
smoke ablation --txs 200

# Each experiment below asserts its own invariants and hands its artifact
# to `fabriccrdt_bench::report`, which re-parses the JSON it wrote and
# checks the required fields; the gate only checks the file landed.
#
# The catch-up storage bench asserts snapshot transfers beat full
# replay at the 100-block chain and that the append-only-file backend
# is byte-identical to the in-memory one.
echo "==> catchup_storage smoke run + artifact check"
rm -f BENCH_catchup_storage.json
smoke catchup_storage --txs 300
test -s BENCH_catchup_storage.json

# The multi-channel bench asserts 1-channel bit-identity to the seed
# gossip pipeline, per-channel replica convergence, aggregate-TPS
# scaling and transfer exactly-once internally.
echo "==> multi_channel smoke run + artifact check"
rm -f BENCH_multi_channel.json
smoke multi_channel --txs 2000
test -s BENCH_multi_channel.json

# The conflict-strategy bench sweeps CRDT merge-commit vs
# abort-and-retry vs reorder+early-abort vs adaptive ordering across
# Zipf skews and retry budgets; it self-asserts the acceptance shape
# (FabricCRDT >= all at s=1.2, adaptive >= reorder at s=0.0).
echo "==> zipf_conflict smoke run + artifact check"
rm -f BENCH_zipf_conflict.json
smoke zipf --txs 600
test -s BENCH_zipf_conflict.json

# The adversarial bench runs the byzantine attack schedule and the
# offline-peer merge storm; it asserts honest convergence, equivocation
# detection and the crashed peer's catch-up internally.
echo "==> adversarial smoke run + artifact check"
rm -f BENCH_adversarial.json
smoke adversarial --txs 1500
test -s BENCH_adversarial.json

# The benchmark package compiles against the workspace's public API
# from outside it; its own gate (fmt, clippy, unit tests, --smoke run of
# every workload) catches a broken pinned surface here instead of at the
# benchmark driver.
echo "==> perf/check.sh"
perf/check.sh

echo "==> OK"
