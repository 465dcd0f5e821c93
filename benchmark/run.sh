#!/usr/bin/env bash
# The referee benchmark, one command: builds the package from source, then
# hands every argument to it.
#
#   benchmark/run.sh                                     all workloads, untraced
#   benchmark/run.sh --trace                             ... and the per-layer pass
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh agree                               run the set twice, compare
#   benchmark/run.sh compare A.json B.json               compare two result files
#   benchmark/run.sh describe                            print BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

# The host record: toolchain and revision. A checkout without `.git`
# reads "unknown" (git would otherwise look in the directories above it).
SADA_REFEREE_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
if [ -e "$root/.git" ]; then
    SADA_REFEREE_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
else
    SADA_REFEREE_GIT_REV=unknown
fi
export SADA_REFEREE_RUSTC SADA_REFEREE_GIT_REV

# Keep freed memory inside the process (glibc malloc): an iteration of
# storm_flat allocates 3 GiB with a 1 GiB peak, and handing that back to
# the kernel and faulting it in again every iteration cost 15% of its
# wall time and most of its run-to-run noise. Same on every commit.
export MALLOC_TRIM_THRESHOLD_=2000000000 MALLOC_TOP_PAD_=268435456 MALLOC_MMAP_THRESHOLD_=33554432

exec "$target/release/sada-referee" --out-dir "$here/out" "$@"
