GO ?= go

.PHONY: all build test race verify serve-smoke cluster-smoke store-smoke trace-smoke scenario-smoke adapt-smoke bench bench-check clean

all: build

build:
	$(GO) build ./...

# Tier-1: the whole repo must build and every test must pass.
test:
	$(GO) test ./...

# Race-check the concurrency-bearing packages: the simulated interconnect,
# the PARTI executors with self-healing receives, the goroutine-per-
# processor distributed solver with its recovery orchestrator, the
# shared-memory worker-pool engine (single-grid and pooled multigrid, V-
# and W-cycles), the cross-engine conformance suite that runs the pooled
# and distributed engines on one mesh, the transfer operators the pooled
# multigrid scatters in parallel, the flight-recorder tracer
# whose rings are written from every worker concurrently, the cluster
# coordinator with its health monitors and handoff machinery, the
# scenario harness that drives every engine over the presets, the
# content-addressed artifact store hit from every HTTP handler at once,
# and the adaptive driver that rebuilds the pooled engine between epochs.
race:
	$(GO) test -race ./internal/simnet/... ./internal/parti/... ./internal/dmsolver/... ./internal/smsolver/... ./internal/solver/... ./internal/multigrid/... ./internal/serve/... ./internal/trace/... ./internal/cluster/... ./internal/scenario/... ./internal/store/... ./internal/adapt/...

# End-to-end serving smoke: build eul3dd, start it on a random port, run a
# channel-mesh job to completion, check /metrics, then SIGTERM it mid-job
# and verify the drain checkpoint resumes on restart.
serve-smoke:
	$(GO) test -run TestServeSmoke -count 1 -v ./cmd/eul3dd

# End-to-end fault-tolerance smoke: build eul3dd and eul3dc, start three
# checkpointing nodes plus the coordinator, kill -9 the node running a job
# mid-solve, and verify the dead node is marked unhealthy within the
# heartbeat threshold and every job completes bitwise identical to a
# single-node reference run.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count 1 -v ./cmd/eul3dc

# End-to-end artifact-store smoke: upload a mesh once to the coordinator,
# solve it by content hash (the coordinator pushes the blob to the chosen
# node), kill -9 that node after a checkpoint, and verify the job finishes
# on the survivor — mesh and checkpoint both travelling as hash references
# — bitwise identical to an uninterrupted reference run.
store-smoke:
	$(GO) test -run TestStoreSmoke -count 1 -v ./cmd/eul3dc

# Flight-recorder smoke: build eul3d, run it traced on the shared-memory
# and fault-injected distributed paths, and validate every emitted file as
# loadable Chrome trace JSON (including the automatic incident dump).
trace-smoke:
	$(GO) test -run TestTraceSmoke -count 1 -v ./cmd/eul3d

# End-to-end scenario smoke: build eul3dd, post the Sod shock tube over
# HTTP on the sequential engine and the pooled engine at workers 1/2/8,
# and check the L1 error against the exact Riemann solution stays under
# the committed tolerance with bitwise-identical pooled diagnostics.
scenario-smoke:
	$(GO) test -run TestScenarioSmoke -count 1 -v ./cmd/eul3dd

# End-to-end adaptive-solve smoke: build eul3d, run the Sod preset with
# -adapt on the pooled engine, and assert the epoch count, cells refined,
# mesh conformity, the incremental-vs-from-scratch rebuild comparison,
# and the scenario physics check on the adapted mesh.
adapt-smoke:
	$(GO) test -run TestAdaptSmoke -count 1 -v ./cmd/eul3d

# Full gate: vet, all tests, race pass, short fuzz smokes on the
# fault-spec parser, the exact Riemann solver, the artifact blob frame
# decoder and the refinement midpoint table (errors, never panics), and
# the serving, cluster, artifact-store, tracing, scenario and adaptive
# smoke tests.
verify: build
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) race
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 2s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzRiemann -fuzztime 2s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzArtifactDecode -fuzztime 2s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzMidpointTable -fuzztime 2s ./internal/refine
	$(GO) test -run TestServeSmoke -count 1 ./cmd/eul3dd
	$(GO) test -run TestClusterSmoke -count 1 ./cmd/eul3dc
	$(GO) test -run TestStoreSmoke -count 1 ./cmd/eul3dc
	$(GO) test -run TestTraceSmoke -count 1 ./cmd/eul3d
	$(GO) test -run TestScenarioSmoke -count 1 ./cmd/eul3dd
	$(GO) test -run TestAdaptSmoke -count 1 ./cmd/eul3d
	$(MAKE) bench-check

# Benchmarks: the Go micro-benchmarks plus the shared-memory scaling run,
# which writes its results to BENCH_smsolver.json.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...
	$(GO) run ./cmd/benchsm -out BENCH_smsolver.json

# Benchmark-honesty gate: a short strict benchsm pass that refuses to run
# any series with more workers than the host has CPUs (a GOMAXPROCS-blind
# series time-slices its workers on one core and records fictional
# speedups), plus a check that the committed BENCH_smsolver.json contains
# no series whose recorded gomaxprocs is below its worker count.
bench-check:
	$(GO) run ./cmd/benchsm -strict -workers auto -nx 10 -ny 6 -nz 4 \
		-steps 4 -warmup 1 -levels 2 -cycles 3 -out /tmp/bench-check.json
	$(GO) run ./cmd/benchcheck BENCH_smsolver.json /tmp/bench-check.json

clean:
	$(GO) clean ./...
