#!/usr/bin/env bash
# Builds the phrasemine CLI and the benchmark program from the sources of
# the checkout it is run in, then runs one benchmark workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload read-mono --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/phrasemine ]]; then
	echo "run.sh: no phrasemine sources here; run it from the repository root" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOFLAGS=

# With telemetry on (the default "local" mode), go commands spawn a detached
# upload process that outlives this script; turning it off first (in the
# private config directory above) means every process started here is
# waited for.
go telemetry off >&2
go build -o "$out/bin/phrasemine" ./cmd/phrasemine >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin/phrasemine" -work "$out/work" "$@"
