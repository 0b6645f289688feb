GO ?= go

.PHONY: all build test vet race chaos recall loc bench bench-check fuzz cover ci experiments experiments-small trace-demo clean

all: vet test build

build:
	$(GO) build ./...

vet:
	gofmt -l . && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection and crash-recovery tests (see internal/fault) under
# the race detector: SIGKILL recovery, WAL degradation, retrain
# coordination, live cluster-resize migration under traffic.
chaos:
	$(GO) test -race -run 'Chaos|Degraded|Retrain|Shed|Panic|Fault' ./...

# ANN recall gate: recall@10 >= 0.95 against the exact scan, on the
# clustered corpus and on trained embeddings.
recall:
	$(GO) test ./internal/index -run 'TestANNRecall' -v
	$(GO) test ./internal/core -run 'TestANNRecallTrainedModel' -v

# Net lines against a base ref, folded the way CHANGES.md reports them:
# make loc BASE=<ref>. Product Go is non-test Go outside bench/.
loc:
	@test -n "$(BASE)" || { echo "usage: make loc BASE=<git ref>"; exit 2; }
	@git diff --numstat $(BASE) | awk '\
		$$1 == "-" { next } \
		{ k = "other" } \
		$$3 ~ /^bench\// { k = "bench/" } \
		$$3 !~ /^bench\// && $$3 ~ /_test\.go$$/ { k = "test Go" } \
		$$3 !~ /^bench\// && $$3 ~ /\.go$$/ && $$3 !~ /_test\.go$$/ { k = "product Go" } \
		$$3 !~ /^bench\// && $$3 ~ /\.md$$/ { k = "docs" } \
		{ add[k] += $$1; del[k] += $$2 } \
		END { n = split("product Go,test Go,bench/,docs,other", ks, ","); \
			for (i = 1; i <= n; i++) printf "%-11s +%-6d -%-6d net %+d\n", ks[i], add[ks[i]], del[ks[i]], add[ks[i]] - del[ks[i]] }'

# The 470Kx128 ANN graph build alone runs ~3 min on one core (2 min 52 s,
# 365 us per insert, on the 2-vCPU box) and the exact scans beside it
# several more, so the suite needs an explicit -timeout past go test's
# 10m default.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -timeout 60m .

# bench/ is its own module, so `go test ./...` above never compiles it:
# an internal/ API change could silently break the harness every perf
# claim is measured with. Vet, build and unit-test it (~5 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Statement-coverage floors: one over the profiling core and the serving
# index together (the equivalence harness is the main consumer), one
# over the visit store, whose oracle and fuzz suites keep the
# late-report scan, the drop path and the WAL's rotation split
# exercised. CI runs the same; raise a floor as its suites grow.
COVER_FLOOR ?= 85.0
STORE_COVER_FLOOR ?= 91.5
cover:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/index
	@$(call cover_floor,coverage.out,$(COVER_FLOOR))
	$(GO) test -coverprofile=coverage-store.out ./internal/store
	@$(call cover_floor,coverage-store.out,$(STORE_COVER_FLOOR))

# cover_floor fails unless the statement total of coverage profile $(1)
# is at least $(2) percent.
define cover_floor
total="$$($(GO) tool cover -func=$(1) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
echo "coverage $(1): $$total% (floor $(2)%)"; \
awk -v t="$$total" -v f="$(2)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% fell below $(2)%"; exit 1; }
endef

# Short fuzz smoke over the WAL record decoder, the visit store against
# its shard-scan reference, the snapshot decoder, the ANN build, the ANN graph loader, the
# exact scan's selection, the scan's 4-row and 4-query kernels (the
# latter on the AVX2 path and the fallback) and the trainer's two
# row kernels against their portable twins, the model loader (what
# PUT /v1/model parses), the profile cache's sparse round trip, the
# gateway's batch-body scanner, the shard's /v1/profile/batch decode,
# /v1/import body and /v1/import decode, the observer's three wire
# parsers and the pcap reader (CI runs the same).
# The sniffer, store-op and shard-body targets cap minimization:
# shrinking one 1200-byte Initial, one op stream that each run replays
# against the reference store, or one body that each run serves twice,
# otherwise takes the whole ten seconds.
fuzz:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzStoreOps$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzANNBuild$$' -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzANNLoad$$' -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzSearchSelect$$' -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzDot32Rows$$' -fuzztime 10s
	$(GO) test ./internal/index -run '^$$' -fuzz '^FuzzDot32Q4$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSGNSKernels$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzModelLoad$$' -fuzztime 10s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzProfileCacheRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzArrayField$$' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzProfileBatchDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzImportStream$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzImportDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sniffer -run '^$$' -fuzz '^FuzzQUICInitial$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sniffer -run '^$$' -fuzz '^FuzzClientHello$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sniffer -run '^$$' -fuzz '^FuzzDNS$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/pcap -run '^$$' -fuzz '^FuzzPcap$$' -fuzztime 10s

# The single CI definition: the workflow's test job runs exactly this.
# The portable kernels — internal/index's scan, internal/core's trainer
# pair — are what every GOARCH but amd64 runs. The arm64 cross-build
# keeps them compiling and vetted; the 386 steps run them natively on an
# amd64 runner, against the same pinned graph and profile hashes the
# assembly meets and testdata/golden.json's train stage (σ table, model
# and loss bits; TestTrainPinnedAcrossCommits), the profile cache's byte
# guard and round trip with 4-byte pointers, the store's WAL and
# snapshot decoders against 4-byte ints and t-SNE's portable exp against
# its pinned bits (~50 s), and then run the root package's Example
# functions and `experiments -small`'s table test, whose printed outputs
# must hold bit for bit off amd64 (~15 s).
ci:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed: $$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/index/ ./internal/core/
	GOARCH=386 $(GO) test -short ./internal/index/ ./internal/core/ ./internal/engine/ ./internal/store/ ./internal/tsne/
	GOARCH=386 $(GO) test -short -run '^Example' .
	GOARCH=386 $(GO) test -short -run '^TestSmallTableByteForByte$$' ./cmd/experiments/
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) bench-check
	$(MAKE) chaos
	$(MAKE) fuzz
	$(MAKE) recall

# End-to-end distributed-tracing demo: serve a small synthetic world,
# post one traced report (triggering a retrain), and print the merged
# client+server trace captured at /debug/traces.
trace-demo:
	$(GO) build -o /tmp/hostprof-demo ./cmd/hostprof
	/tmp/hostprof-demo gen -out /tmp/trace-demo-world -sites 120 -users 10 -days 2 -pcap=false
	/tmp/hostprof-demo serve -addr 127.0.0.1:8423 -ontology /tmp/trace-demo-world/ontology.jsonl \
		-trace-sample 1 -slow-request 1ms & echo $$! > /tmp/trace-demo.pid; \
	sleep 1; \
	/tmp/hostprof-demo report -addr http://127.0.0.1:8423 -trace /tmp/trace-demo-world/trace.jsonl \
		-user 3 -seed -retrain -print-trace; status=$$?; \
	echo "--- /debug/traces (server view) ---"; \
	curl -s http://127.0.0.1:8423/debug/traces | head -c 2000; echo; \
	kill $$(cat /tmp/trace-demo.pid); rm -f /tmp/trace-demo.pid; exit $$status

experiments:
	$(GO) run ./cmd/experiments -verbose -data-dir data

experiments-small:
	$(GO) run ./cmd/experiments -small -verbose

clean:
	$(GO) clean ./...
