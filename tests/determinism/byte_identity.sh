#!/usr/bin/env bash
# Executable form of the determinism contract: one seed fixes every byte of
# the exported metrics, independent of hash order, address layout, or
# anything else that varies between processes — and independent of hot-path
# refactors, which must replay history bit-identically.
#
# Two modes:
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
set -euo pipefail

golden=""
if [[ "$1" == "--golden" ]]; then
  golden=$2
  shift 2
fi

bin=$1
shift

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$bin" "$@" --json "$out/run1.json" >/dev/null
"$bin" "$@" --json "$out/run2.json" >/dev/null

if ! cmp -s "$out/run1.json" "$out/run2.json"; then
  echo "byte_identity: repeated runs diverged:" >&2
  diff -u "$out/run1.json" "$out/run2.json" >&2 || true
  exit 1
fi

if [[ -n "$golden" ]]; then
  if [[ ! -f "$golden" ]]; then
    echo "byte_identity: golden file not found: $golden" >&2
    exit 1
  fi
  if ! cmp -s "$golden" "$out/run1.json"; then
    echo "byte_identity: run diverged from golden $golden:" >&2
    diff -u "$golden" "$out/run1.json" >&2 || true
    exit 1
  fi
  echo "byte_identity: OK ($(wc -c < "$out/run1.json") bytes identical, golden matched)"
else
  echo "byte_identity: OK ($(wc -c < "$out/run1.json") bytes identical)"
fi
