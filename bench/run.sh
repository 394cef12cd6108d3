#!/bin/bash
# The benchmark driver's entry point: BENCHMARK.json runs `bash bench/run.sh
# --workload <name> --seed <n> --seconds <s> --trace <0|1>` from the root of a
# checkout. bench/ is a Go module of its own, so the program is built inside
# it (the go tool skips the work when nothing changed) and exec'd, which makes
# it the process the driver's signals reach. `go run -C bench .` by hand does
# the same.
cd "$(dirname "$0")" && go build -o .out/bin/bench . && exec .out/bin/bench "$@"
