GO ?= go

FDPLINT := bin/fdplint

.PHONY: all ci vet fmt lint loc build test race bench bench-smoke bench-baseline replay-golden fuzz-smoke fuzz-hunt node-churn

all: vet fmt lint build test race replay-golden fuzz-smoke bench-smoke

# ci runs what the test, lint and race jobs of .github/workflows/ci.yml run.
# The workflow's fourth job is a target of its own: node-churn.
ci: vet fmt lint build test race replay-golden fuzz-smoke bench-smoke

vet:
	$(GO) vet ./...

# fmt fails, naming them, if gofmt would rewrite any Go file outside the
# analyzers' testdata trees (fixtures there are laid out for the diagnostics
# they seed, not for gofmt).
fmt:
	@out=$$(gofmt -l . | grep -v /testdata/ || true); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint runs the full fdp analysis suite (see DESIGN.md §9 and §14:
# refopacity, detiter, guardpurity, primdecomp, atomicdiscipline, lockgraph)
# over the whole program: one process loads the module in dependency order,
# threads cross-package facts through a shared store, and checks global
# properties — the call-graph mover fixpoint, the inferred lock-acquisition
# graph — that no package-at-a-time run can see.
lint: $(FDPLINT)
	$(FDPLINT) ./...

$(FDPLINT): FORCE
	$(GO) build -o $(FDPLINT) ./cmd/fdplint

FORCE:

# loc prints the one number ROADMAP's "least code" aim is judged by: lines
# of non-test, non-testdata Go source under the module (comments and blank
# lines included — no stripping). Quote it before/after in CHANGES.md.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with real concurrency (goroutine-per-process runtime,
# snapshot locking, the observability registry, the differential harness
# driving both engines) and the model core they exercise run under the race
# detector. ./benchmark is in the list for what its traced pass assumes: its
# oracle wrapper and verdict hook count with plain fields, so this run is what
# pins "the runtime judges one call at a time" — TestOracleCallsOneAtATime
# (internal/parallel, four shards) holds the same in the package. Workers
# judge leavers' rows and commit their exits side by side:
# TestAdjacentLeaversExitSideBySide commits adjacent leavers on two, three and
# four shards, and TestLedgerRetiresConcurrently (internal/graph) retires
# ledger rows from four goroutines. CI runners have two cores, and a
# runtime left to GOMAXPROCS then has two shards: the cross-shard mail path
# (outbox, inbox, absorb at a pause) is raced by the internal/parallel tests
# that force the count with SetShards — TestForcedShardChurn on four shards,
# TestInFlightConservation on two, three and four (and that replies took
# their delivered messages' ledger pairs over), TestOutboxWaitsForTheActionToEnd
# on two (an outbox is published between actions, never inside one, which
# the ledger's reply handoff relies on). The observers that stripe their
# state by Event.Lane are raced the same way, by tests that force the lane
# count: TestStepNonDecreasingPerProcess (internal/parallel, four shards
# stamping lanes and cached steps through rebalances), TestFlightLanesMergeCausally
# (internal/trace, four goroutines on four rings), TestFlightCompleteSnapshotIsACut
# (snapshots beside a recorder on two lanes), TestConcurrentRecordKeepsLinesWhole
# (internal/trace, the journal Writer's line buffers: five goroutines on four
# lanes, two sharing one, every record once and in order after Err) and
# TestProgressLanesAgreeWithOneLane (internal/obs).
race:
	$(GO) test -race ./internal/sim/... ./internal/graph/... ./internal/parallel/... ./internal/core/... ./internal/diffval/... ./internal/faults/... ./internal/obs/... ./internal/trace/... ./internal/fuzz/... ./internal/transport/... ./internal/node/... ./benchmark/...

# replay-golden holds the committed journals in cmd/fdpreplay/testdata to
# the replay determinism contract: each sequential golden must re-drive
# byte-identically and record again to the same bytes through
# trace.RecordRun, and the seeded three-node mesh (node.RunLoopback) and the
# seeded two-shard runtime (Runtime.RunSeeded) must regenerate their journals
# byte for byte and join with no duplicate.
# Regenerate deliberately with: go test ./cmd/fdpreplay -update
replay-golden:
	$(GO) test ./cmd/fdpreplay -run 'TestGoldenJournalsReplayByteIdentically|TestGoldenJournalsRecordByteIdentically|TestMeshGoldenJournalsRegenerateByteIdentically|TestRuntimeGoldenJournalRegeneratesByteIdentically' -count=1

# fuzz-smoke replays every committed counterexample fixture byte-identically
# (internal/fuzz/testdata), runs the mutation harness end to end (the
# injected MUTANT-SINGLE bug must be found, shrunk, journaled and replayed),
# then sweeps 200 fresh cases of a fixed seed twice and demands byte-identical
# output: both engines run on seeded schedules (the runtime on two to four
# shards drawn from each case's seed), so the sweep is deterministic and well
# under 30s on one core. Last, six 5s native go-fuzz passes: three on the
# producing side — the journal's hand-rolled
# record encoder against encoding/json (internal/trace FuzzRecordLine), the
# dense process graph and the degree ledger against map-of-pairs models
# (internal/graph FuzzGraphOps, FuzzLedgerOps) — and three on the consuming
# side: arbitrary bytes through
# the journal reader (internal/trace FuzzReadJournal; its inputs are whole
# journals, so minimizing a new one is capped at 200 runs instead of 60 s),
# and on the mesh's wire arbitrary frame bytes through the codec and the
# engine's Inject (internal/transport FuzzDecodeFrame), arbitrary control
# payloads and sender ids through a node with an oracle round open
# (internal/node FuzzControl). These six are not deterministic — a failure
# lands as a seed file under the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/fuzz -count=1
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fdpfuzz" ./cmd/fdpfuzz || exit 1; \
	"$$d/fdpfuzz" -seed 11 -runs 200 -timeout 5s >"$$d/a"; s=$$?; cat "$$d/a"; [ $$s -eq 0 ] || exit $$s; \
	"$$d/fdpfuzz" -seed 11 -runs 200 -timeout 5s >"$$d/b" && cmp "$$d/a" "$$d/b"
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRecordLine -fuzztime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadJournal -fuzztime 5s -fuzzminimizetime 200x
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzGraphOps -fuzztime 5s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzLedgerOps -fuzztime 5s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 5s
	$(GO) test ./internal/node -run '^$$' -fuzz FuzzControl -fuzztime 5s

# fuzz-hunt is the scheduled long hunt (.github/workflows/fuzz.yml): a
# time-bounded randomized sweep with the seed drawn from the calendar date,
# so each nightly run walks a fresh case sequence while staying exactly
# reproducible from the log line. Shrunk failures land in fuzz-artifacts/
# as replayable journal fixtures for the workflow to upload.
FUZZ_DURATION ?= 10m
fuzz-hunt:
	$(GO) run ./cmd/fdpfuzz -seed $$(date +%Y%m%d) -duration $(FUZZ_DURATION) -out fuzz-artifacts

# node-churn runs a real multi-process churn: NODES fdpnode processes on
# localhost TCP, each owning a slice of one shared scenario, then merges the
# per-node journals and summaries into the run verdict (causal join, every
# leaver exited, Lemma 2 on the survivors). Small n — the processes share
# whatever cores the host has.
NODES ?= 3
NODE_N ?= 12
NODE_SEED ?= 42
NODE_PORT ?= 7450
# NODE_MPORT is the /metrics port base: node i serves on NODE_MPORT+i.
NODE_MPORT ?= 9450
NODE_OUT ?= node-out
# Every node runs with -serve (live per-node /metrics + pprof), -hold (the
# endpoint outlives the run until the TERM below releases it) and an armed
# -stall watchdog. While the fleet runs, fdpnode -scrape aggregates the
# cluster's liveness series and the target asserts each node exposes its own
# fdp_progress_* slice (distinct node labels) plus transport counters; then
# it waits for every summary, winds the fleet down, and merges the verdict.
node-churn:
	$(GO) build -o bin/fdpnode ./cmd/fdpnode
	rm -rf $(NODE_OUT) && mkdir -p $(NODE_OUT)
	@set -e; pids=""; addrs=""; i=0; \
	while [ $$i -lt $(NODES) ]; do \
	  peers=""; j=0; \
	  while [ $$j -lt $(NODES) ]; do \
	    if [ $$j -ne $$i ]; then \
	      [ -n "$$peers" ] && peers="$$peers,"; \
	      peers="$$peers$$j=127.0.0.1:$$(($(NODE_PORT)+$$j))"; \
	    fi; j=$$((j+1)); \
	  done; \
	  [ -n "$$addrs" ] && addrs="$$addrs,"; \
	  addrs="$$addrs 127.0.0.1:$$(($(NODE_MPORT)+$$i))"; \
	  bin/fdpnode -id $$i -nodes $(NODES) -listen 127.0.0.1:$$(($(NODE_PORT)+$$i)) \
	    -peers "$$peers" -n $(NODE_N) -topology line -leave 0.4 -pattern random \
	    -seed $(NODE_SEED) -out $(NODE_OUT) -timeout 60s \
	    -serve 127.0.0.1:$$(($(NODE_MPORT)+$$i)) -hold 60s -stall 10s & \
	  pids="$$pids $$!"; i=$$((i+1)); \
	done; \
	tries=0; \
	until bin/fdpnode -scrape "$$addrs" > $(NODE_OUT)/scrape.txt 2>/dev/null; do \
	  tries=$$((tries+1)); \
	  [ $$tries -lt 150 ] || { echo "node-churn: scrape never succeeded"; exit 1; }; \
	  sleep 0.2; \
	done; \
	i=0; while [ $$i -lt $(NODES) ]; do \
	  grep -q "fdp_progress_leavers_remaining{node=\"$$i\"}" $(NODE_OUT)/scrape.txt \
	    || { echo "node-churn: no fdp_progress series for node $$i"; cat $(NODE_OUT)/scrape.txt; exit 1; }; \
	  i=$$((i+1)); \
	done; \
	grep -q "fdp_transport_frames_total" $(NODE_OUT)/scrape.txt \
	  || { echo "node-churn: no transport series in scrape"; cat $(NODE_OUT)/scrape.txt; exit 1; }; \
	i=0; while [ $$i -lt $(NODES) ]; do \
	  tries=0; \
	  while [ ! -f $(NODE_OUT)/summary-$$i.json ]; do \
	    tries=$$((tries+1)); \
	    [ $$tries -lt 400 ] || { echo "node-churn: node $$i never wrote its summary"; exit 1; }; \
	    sleep 0.2; \
	  done; i=$$((i+1)); \
	done; \
	kill -TERM $$pids; \
	rc=0; for p in $$pids; do wait $$p || rc=1; done; [ $$rc -eq 0 ]
	bin/fdpnode -merge $(NODE_OUT)

BENCH_PKGS := . ./internal/check ./internal/churn ./internal/diffval ./internal/framework ./internal/graph ./internal/metrics ./internal/node ./internal/obs ./internal/parallel ./internal/sim ./internal/trace

bench:
	$(GO) test -bench . -benchmem -run XXX $(BENCH_PKGS)

# bench-smoke runs every benchmark of bench's packages once, so a benchmark
# that fails at run time fails the build; the experiment benchmarks among
# them run E9's NIDEC baseline and the ablation oracles end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# bench-baseline regenerates the committed n-scaling series in bench/ (see
# bench/README.md; nothing gates on it — the yardstick is ./benchmark). Sizes
# above experiments.SimBenchSizeCap (n=100000) run only on the concurrent
# engine.
bench-baseline:
	$(GO) run ./cmd/fdpbench -quick -bench -sizes 8,16,32,64,1000,10000,100000 -bench-out bench
