#!/usr/bin/env bash
# Malformed input must be rejected as a usage error: exit status 2 and a
# message on stderr, never a PLANET_CHECK abort (status 134).
#
#   expect_usage_error.sh PATTERN BINARY [args...]
#       Passes iff BINARY exits 2 and its stderr matches the extended
#       regular expression PATTERN.
set -uo pipefail

pattern=$1
shift

err=$("$@" 2>&1 >/dev/null)
status=$?
if [[ $status -ne 2 ]]; then
  echo "expect_usage_error: exit status $status, want 2: $*" >&2
  echo "$err" >&2
  exit 1
fi
if ! grep -qE -- "$pattern" <<<"$err"; then
  echo "expect_usage_error: stderr does not match '$pattern': $*" >&2
  echo "$err" >&2
  exit 1
fi
echo "expect_usage_error: OK (exit 2: $err)"
