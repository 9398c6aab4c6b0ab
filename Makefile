# Tier-1 verification: what CI (and the roadmap) gate on.
#
#   make check     build, vet, lint (the alewife-lint analyzer suite as
#                  a go vet vettool: determinism, engine confinement,
#                  pool discipline, hot-path allocs,
#                  nil-receiver guards — zero findings, no baseline),
#                  full test suite under the race detector,
#                  then protocol stress smokes (8 seeds, 2000 ops/node,
#                  live invariants + per-location SC history checking) on
#                  both perfect and lossy wires (seeded drop/dup/reorder
#                  with reliable delivery recovering), explore and bench
#                  smokes
#   make explore-smoke  depth-bounded schedule-space exploration (model
#                  checking) of a 4-node machine: every reachable
#                  interleaving within bounds must pass every oracle
#   make stress    the longer fuzz run used before cutting a release
#   make bench-smoke  every go test benchmark once (-benchtime 1x): each
#                  body runs and checks its own result, no timing is gated.
#                  Measure with go test -bench <Name> -benchmem; the
#                  end-to-end wall-clock benchmark is bash perfbench/run.sh
#   make cover     statement coverage with a per-package floor of
#                  $(COVER_FLOOR)% across internal/...
#
# Batch targets pass -parallel 0 (one worker per core): every seed and
# experiment is a self-contained simulation, and output is buffered and
# emitted in serial order, so results are byte-identical at any width.

GO ?= go

COVER_FLOOR ?= 60

.PHONY: check build vet lint test cover stress-smoke stress-smoke-lossy explore-smoke stress bench bench-smoke

check: build vet lint test cover stress-smoke stress-smoke-lossy explore-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own analyzer suite (cmd/alewife-lint), run through go
# vet's vettool protocol so the build cache keeps it incremental. Strict:
# there is no baseline file; exceptions live in the source as
# //alewife:allow comments with reasons.
lint:
	$(GO) build -o bin/alewife-lint ./cmd/alewife-lint
	$(GO) vet -vettool=$(CURDIR)/bin/alewife-lint ./...

test:
	$(GO) test -race ./...

# Per-package statement-coverage floor for the simulator internals. The
# awk gate fails listing every package below $(COVER_FLOOR)%; FAIL lines
# are trapped too, since the pipe would otherwise eat go test's exit code.
cover:
	$(GO) test -cover ./internal/... | awk -v floor=$(COVER_FLOOR) '\
		{ print } \
		/^FAIL/ { bad = bad "\n  " $$2 " FAIL" } \
		/coverage:/ { if ($$5+0 < floor) { bad = bad "\n  " $$2 " " $$5 } } \
		END { if (bad != "") { printf "cover: packages below %d%% floor or failing:%s\n", floor, bad; exit 1 } }'

stress-smoke:
	$(GO) run ./cmd/alewife-stress -ops 2000 -seeds 8 -parallel 0

stress-smoke-lossy:
	$(GO) run ./cmd/alewife-stress -loss -ops 2000 -seeds 8 -parallel 0

explore-smoke:
	$(GO) run ./cmd/alewife-explore -nodes 4 -ops 10 -lines 2 -depth 24 -runs 300 -v
	$(GO) run ./cmd/alewife-explore -nodes 3 -ops 8 -lines 2 -faultpackets 3 -runs 300

stress:
	$(GO) run ./cmd/alewife-stress -ops 5000 -seeds 64 -parallel 0
	$(GO) run ./cmd/alewife-stress -loss -ops 5000 -seeds 64 -parallel 0

bench:
	$(GO) run ./cmd/alewife-bench -all -parallel 0

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
