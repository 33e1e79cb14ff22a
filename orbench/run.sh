#!/usr/bin/env bash
# Builds the benchmark from source (offline, release, both binaries) and
# runs it. Every argument goes to `orbench`; see README.md.
#
# `orbench-cargo SUBCOMMAND...` runs cargo on this package the way the
# build does, e.g. `bash orbench/run.sh orbench-cargo test`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The published crates if cargo can resolve them offline (a filled
# registry cache); otherwise the stand-ins, patched in from the command
# line so that the manifest never claims they are the real thing. The
# binary stamps which of the two it was built against.
deps=registry
patch=()
if ! cargo metadata --offline --format-version 1 \
    --manifest-path "$here/Cargo.toml" >/dev/null 2>&1; then
    deps=standins
    for name in serde serde_json rand rand_chacha parking_lot bytes; do
        patch+=(--config "patch.crates-io.$name.path=\"$here/standins/$name\"")
    done
fi
orbench_cargo() {
    local subcommand="$1"
    shift
    ORBENCH_DEPS="$deps" cargo "$subcommand" --offline --quiet ${patch[@]+"${patch[@]}"} \
        --manifest-path "$here/Cargo.toml" "$@"
}

if [[ "${1:-}" == orbench-cargo ]]; then
    shift
    orbench_cargo "$@"
    exit
fi
orbench_cargo build --release --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/orbench" "$@"
