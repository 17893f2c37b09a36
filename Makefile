# Development entry points. `make check` is the full CI gate.

GO ?= go

.PHONY: all build test race lint guards fmt vet fuzz bench faultsoak trace-smoke scale-smoke chaos-soak check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The agents are single-threaded handlers on the virtual clock; the only
# goroutines are internal/parallel's sweep workers, which the experiments
# fan out on. The race detector covers those, and the harpdebug invariant
# hooks catch what plain tests miss.
race:
	$(GO) test -race ./...
	$(GO) test -tags harpdebug ./internal/core/ ./internal/agent/ ./internal/invariant/ ./internal/transport/ ./internal/cosim/

# harplint always lints the whole module and takes no package arguments.
# CI runs it with -format github for file/line annotations, then `make
# guards`.
lint:
	$(GO) run ./cmd/harplint
	@$(MAKE) --no-print-directory guards

# The simulation core runs on one virtual clock and is driven from one
# goroutine, and every experiment and telemetry fold reports virtual-time
# results only, so none of them carries a determinism exemption at all;
# the first grep keeps that count at zero. The second grep keeps the
# runtime lock-free and serverless: outside internal/parallel, whose locks
# go vet's copylocks check covers, no non-test file under internal/
# imports sync, sync/atomic or net/http. The third keeps agent state
# dense: per-node protocol state is per-layer and per-child records, so no
# non-test file under internal/agent declares a layer-keyed map[int].
NO_EXEMPT_PKGS = internal/transport internal/agent internal/sim internal/vclock internal/core internal/cosim internal/experiments internal/obs
guards:
	@if grep -rnF 'harplint:allow determinism' $(NO_EXEMPT_PKGS); then \
		echo "harplint exemptions are not allowed in: $(NO_EXEMPT_PKGS)"; exit 1; fi
	@if grep -rlE --include='*.go' --exclude='*_test.go' '"(sync|sync/atomic|net/http)"' internal | grep -v '^internal/parallel/'; then \
		echo "only internal/parallel may import sync, sync/atomic or net/http under internal/"; exit 1; fi
	@if grep -rnF --include='*.go' --exclude='*_test.go' 'map[int]' internal/agent; then \
		echo "agent state is per-layer records: no map[int] in internal/agent"; exit 1; fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Short smoke of every fuzz target (CI's fuzz-smoke job runs it as is);
# extend -fuzztime for real campaigns.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode    -fuzztime=$(FUZZTIME) ./internal/coap/
	$(GO) test -run=^$$ -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/coap/
	$(GO) test -run=^$$ -fuzz=FuzzPackStrip -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzGridPack  -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzGridBitset -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzConExchange -fuzztime=$(FUZZTIME) ./internal/coap/
	$(GO) test -run=^$$ -fuzz=FuzzScheduleConflicts -fuzztime=$(FUZZTIME) ./internal/schedule/

# The repo's host-time benchmark (five end-to-end workloads, per-layer
# breakdown); see benchmark/README.md and BENCHMARK.json. Results (as
# opposed to speed) are gated by `go test ./cmd/harpbench`: the quick
# suite's report must equal BENCH_harpbench.json byte for byte at -workers
# 1 and 4. After an intentional behaviour change, refresh it with:
#   $(GO) run ./cmd/harpbench -quick -json BENCH_harpbench.json
bench:
	bash benchmark/run.sh

# Fault-injection soak: the loss-tolerance test surface under the race
# detector and the harpdebug invariant hooks, then the loss sweep at two
# worker counts — the report is a pure function of the seeds, so the two
# files must be identical.
faultsoak:
	$(GO) test -race -tags harpdebug -run 'Fault|Crash|Dup|Loss|Reliab|FleetViews|FleetConcurrent|EnvelopePool|Unregistered|PairMapModel|StarSender|Borrowed|KeepaliveLedger|LeaveDuring' ./internal/transport/ ./internal/agent/ ./internal/cosim/ ./internal/experiments/
	$(GO) run ./cmd/harpbench -quick -only losssweep -json /tmp/losssweep_w1.json -workers 1
	$(GO) run ./cmd/harpbench -quick -only losssweep -json /tmp/losssweep_w4.json -workers 4
	cmp /tmp/losssweep_w1.json /tmp/losssweep_w4.json

# Scale smoke: the 1k tier of the scale study under the race detector, at
# two worker counts; the reports must be identical (the sharded kernel's
# dispatch order is worker- and shard-blind). The full 50k tier runs in
# TestBaselineIsCurrent.
scale-smoke:
	$(GO) run -race ./cmd/harpbench -quick -only scale -scale-sizes 1000 -json /tmp/scale_w1.json -workers 1
	$(GO) run -race ./cmd/harpbench -quick -only scale -scale-sizes 1000 -json /tmp/scale_w4.json -workers 4
	cmp /tmp/scale_w1.json /tmp/scale_w4.json

# Chaos soak: the self-healing machinery (failure detector, adoption,
# watchdog, chaos engine) under the race detector with the harpdebug
# invariant sweeps, then the chaos storm at two worker counts — every
# chaos key is a virtual-time quantity, so the reports must be identical.
chaos-soak:
	$(GO) test -race -tags harpdebug -run 'Detector|Chaos|Recover|GiveUps|RestartDuring' ./internal/agent/ ./internal/cosim/ ./internal/experiments/
	$(GO) run -race ./cmd/harpbench -quick -only chaos -json /tmp/chaos_w1.json -workers 1
	$(GO) run -race ./cmd/harpbench -quick -only chaos -json /tmp/chaos_w4.json -workers 4
	cmp /tmp/chaos_w1.json /tmp/chaos_w4.json

# Trace smoke: a small co-simulation must reproduce the committed golden
# trace byte-for-byte, and harptrace must digest it (summary, windows and
# the Chrome/Perfetto conversion). Catches both schedule nondeterminism
# and exporter format drift in one shot. The traced fig10 run must also
# record the same trace at any worker count.
trace-smoke:
	$(GO) run ./cmd/harpsim -topology fig1 -cosim -slotframes 30 -trace /tmp/harptrace_smoke.jsonl > /dev/null
	diff -u cmd/harptrace/testdata/smoke.jsonl /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace summary /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace windows /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace chrome -o /tmp/harptrace_smoke_chrome.json /tmp/harptrace_smoke.jsonl
	jq -e '.traceEvents | length > 0' /tmp/harptrace_smoke_chrome.json > /dev/null
	$(GO) run ./cmd/harpbench -quick -only fig10 -workers 1 -trace /tmp/fig10_t1.jsonl > /dev/null
	$(GO) run ./cmd/harpbench -quick -only fig10 -workers 4 -trace /tmp/fig10_t4.jsonl > /dev/null
	cmp /tmp/fig10_t1.jsonl /tmp/fig10_t4.jsonl

check: fmt vet lint build test race trace-smoke

clean:
	$(GO) clean ./...
