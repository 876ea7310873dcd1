#!/bin/sh
# Formatting gate: verify the tree is ocamlformat-clean when ocamlformat
# is available.
#
# The CI/base image used for tier-1 does not ship ocamlformat, and dune
# fails @fmt outright when the binary is missing — so this script skips
# (exit 0) rather than failing in environments that cannot run the
# check. Developer machines with ocamlformat installed get the real
# check. Set HMN_SKIP_FMT=1 to opt out entirely.
#
# Modes:
#   (default)  dune build @fmt — for direct invocation from a shell
#   --fix      dune build @fmt --auto-promote
#   --direct   ocamlformat --check on every .ml/.mli, no dune involved;
#              this is the mode the tools/dune runtest rule uses, since a
#              rule cannot re-enter dune.
set -eu

if [ -n "${HMN_SKIP_FMT:-}" ]; then
  echo "check-fmt: HMN_SKIP_FMT set; skipping" >&2
  exit 0
fi

# Resolve the real source root: walk up from this script's directory
# until a .git (or a .ocamlformat) appears. When dune runs the --direct
# mode the script lives in _build/default/tools, so the walk correctly
# escapes the build directory back to the checkout.
root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
probe="$root"
while [ "$probe" != "/" ]; do
  if [ -e "$probe/.git" ] || [ -f "$probe/.ocamlformat" ]; then
    root="$probe"
    break
  fi
  probe=$(dirname -- "$probe")
done
cd "$root"

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "check-fmt: ocamlformat not installed; skipping (tier-1 unaffected)" >&2
  exit 0
fi

want=$(sed -n 's/^version *= *//p' .ocamlformat 2>/dev/null || true)
have=$(ocamlformat --version 2>/dev/null || true)
if [ -n "$want" ] && [ "$have" != "$want" ]; then
  echo "check-fmt: ocamlformat $have != pinned $want; skipping" >&2
  exit 0
fi

case "${1:-}" in
--fix)
  exec dune build @fmt --auto-promote
  ;;
--direct)
  bad=0
  for f in $(
    for dir in bin lib test; do
      [ -d "$dir" ] || continue
      find "$dir" \( -name _build -o -name '.*' \) -prune -o \
        \( -name '*.ml' -o -name '*.mli' \) -print
    done
  ); do
    if ! ocamlformat --check "$f" >/dev/null 2>&1; then
      echo "check-fmt: $f is not formatted" >&2
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "check-fmt: formatting check failed (run tools/check-fmt.sh --fix)" >&2
    exit 1
  fi
  echo "check-fmt: all files formatted"
  ;;
*)
  exec dune build @fmt
  ;;
esac
