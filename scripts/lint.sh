#!/usr/bin/env bash
# One-shot static-analysis sweep — the same gates CI's lint job runs:
#
#   1. gofmt (diff-clean tree),
#   2. go vet with the stock analyzers,
#   3. staticcheck, when installed (CI always installs it; locally the
#      sweep degrades gracefully rather than requiring a download),
#   4. dohlint, the project analyzer suite (noalloc, metricsname,
#      buildtag, lockcheck, atomiccheck, golifecycle)
#      driven through go vet's vettool protocol,
#   5. the dohlint escape gate: recompile every package containing
#      //dohlint:noalloc functions with -m and fail on any heap escape
#      inside an annotated fast path.
#
# Requires: go. Exits non-zero on the first failing gate.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" >&2
  echo "$out" >&2
  exit 1
fi

echo "==> go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck ./...
else
  echo "==> staticcheck (skipped: not installed)"
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "==> dohlint (project analyzers)"
go build -o "$workdir/dohlint" ./cmd/dohlint
go vet -vettool="$workdir/dohlint" ./...

echo "==> dohlint escape gate"
"$workdir/dohlint" escape ./...

echo "all lint gates passed"
