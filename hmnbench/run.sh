#!/usr/bin/env bash
# Build the benchmark from this source tree and run one workload:
#
#   bash hmnbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# All arguments go to hmn_bench (see hmn_bench.ml). Build output goes to
# stderr, so the last line of stdout is hmn_bench's JSON result. The
# dune cache is disabled and the compiler's temporary files go to
# hmnbench/out/tmp, so the build writes only inside this checkout.
set -eu

cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f hmnbench/dune ]; then
  echo "hmnbench: run from a checkout of the hmn repository (library sources not found)" >&2
  exit 3
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

export DUNE_CACHE=disabled
export TMPDIR="$PWD/hmnbench/out/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display=quiet \
  hmnbench/hmn_bench.exe hmnbench/bench_diff.exe 1>&2

rev=unknown
if [ -d .git ]; then
  rev=$(git describe --always --dirty 2>/dev/null || echo unknown)
fi

exec ./_build/default/hmnbench/hmn_bench.exe --rev "$rev" "$@"
