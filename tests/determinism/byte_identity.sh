#!/usr/bin/env bash
# Executable form of the determinism contract: one seed fixes every byte of
# the exported metrics, independent of hash order, address layout, or
# anything else that varies between processes — and independent of hot-path
# refactors, which must replay history bit-identically.
#
# Three modes:
#
#   byte_identity.sh PLANETLAB_BINARY [planetlab args...]
#       Runs the command twice with --json and fails unless the two
#       documents are byte-identical (run-to-run determinism).
#
#   byte_identity.sh --golden GOLDEN_JSON PLANETLAB_BINARY [args...]
#       Additionally compares the run against a committed golden document
#       (cross-change determinism: the refactored simulator must replay the
#       exact history the pre-refactor simulator produced). Regenerate
#       goldens only for a deliberate, reviewed behaviour change:
#         build/tools/planetlab <args> --json tests/determinism/golden/NAME.json
#
#   byte_identity.sh --stdout-golden GOLDEN_TXT BINARY [args...]
#       Same checks on the command's stdout instead of a --json document,
#       for tools without --json (planet_fuzz -v prints one txns=/committed=
#       line per seed). Regenerate with:
#         BINARY <args> > tests/determinism/golden/NAME.txt
set -euo pipefail

golden=""
stdout_mode=0
if [[ "$1" == "--golden" ]]; then
  golden=$2
  shift 2
elif [[ "$1" == "--stdout-golden" ]]; then
  golden=$2
  stdout_mode=1
  shift 2
fi

bin=$1
shift

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for run in run1 run2; do
  if [[ $stdout_mode -eq 1 ]]; then
    "$bin" "$@" >"$out/$run"
  else
    "$bin" "$@" --json "$out/$run" >/dev/null
  fi
done

if ! cmp -s "$out/run1" "$out/run2"; then
  echo "byte_identity: repeated runs diverged:" >&2
  diff -u "$out/run1" "$out/run2" >&2 || true
  exit 1
fi

if [[ -n "$golden" ]]; then
  if [[ ! -f "$golden" ]]; then
    echo "byte_identity: golden file not found: $golden" >&2
    exit 1
  fi
  if ! cmp -s "$golden" "$out/run1"; then
    echo "byte_identity: run diverged from golden $golden:" >&2
    diff -u "$golden" "$out/run1" >&2 || true
    exit 1
  fi
  echo "byte_identity: OK ($(wc -c < "$out/run1") bytes identical, golden matched)"
else
  echo "byte_identity: OK ($(wc -c < "$out/run1") bytes identical)"
fi
