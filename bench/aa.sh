#!/bin/sh
# A/A check for CI: N full sets of the same binary (default 2), each on
# its own seed; exits non-zero when a metric's spread exceeds its bound
# or an oracle fails. Run from the repository root.
set -eu
exec go run ./bench -aa "${1:-2}" --seconds "${2:-10}"
