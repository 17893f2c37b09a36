# Development entry points. `make check` is the full CI gate.

GO ?= go

.PHONY: all build test race lint lint-json fmt vet fuzz determinism benchgate bench faultsoak trace-smoke scale-smoke chaos-soak metrics-smoke check clean

# Normalisation for report diffs: host and wall-time fields differ between
# runs by construction, and the scale study's throughput/footprint keys
# (*_per_sec, *_bytes_per_node) are host-dependent by design — the gate
# bounds those with a ratio band instead.
JQ_NORM = del(.host, .total_sec, .workers) | .experiments |= map(del(.wall_sec) | .metrics |= with_entries(select((.key | endswith("_per_sec") or endswith("_bytes_per_node")) | not)))

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The agent fleet is the concurrency hot spot; the race detector plus the
# harpdebug invariant hooks catch what plain tests miss.
race:
	$(GO) test -race ./...
	$(GO) test -tags harpdebug ./internal/core/ ./internal/agent/ ./internal/invariant/ ./internal/transport/ ./internal/cosim/

# The baseline is committed and empty; any entry added there must still
# fire (stale entries are findings), so it can only be burned down.
#
# The simulation core runs on one virtual clock and is driven from one
# goroutine, so it carries no wall-clock or determinism exemption at all;
# the grep keeps that count at zero (the audited real-time boundaries live
# in cmd/, internal/obs/http.go and internal/experiments/scale.go).
NO_EXEMPT_PKGS = internal/transport internal/agent internal/sim internal/vclock internal/core internal/cosim
lint:
	$(GO) run ./cmd/harplint -baseline harplint.baseline.json ./...
	@if grep -rnE 'harplint:(realtime|allow determinism)' $(NO_EXEMPT_PKGS); then \
		echo "harplint exemptions are not allowed in: $(NO_EXEMPT_PKGS)"; exit 1; fi

lint-json:
	$(GO) run ./cmd/harplint -format json -baseline harplint.baseline.json ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Short smoke of every fuzz target; extend -fuzztime for real campaigns.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode    -fuzztime=$(FUZZTIME) ./internal/coap/
	$(GO) test -run=^$$ -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/coap/
	$(GO) test -run=^$$ -fuzz=FuzzPackStrip -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzGridPack  -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzGridBitset -fuzztime=$(FUZZTIME) ./internal/packing/
	$(GO) test -run=^$$ -fuzz=FuzzConExchange -fuzztime=$(FUZZTIME) ./internal/coap/

# Benchmark output must be a pure function of the seeds: run the quick
# suite under two worker counts and require identical reports outside the
# host/walltime fields.
determinism:
	$(GO) run ./cmd/harpbench -quick -json /tmp/harpbench_w1.json -workers 1
	$(GO) run ./cmd/harpbench -quick -json /tmp/harpbench_w4.json -workers 4
	jq -S '$(JQ_NORM)' /tmp/harpbench_w1.json > /tmp/harpbench_w1.norm.json
	jq -S '$(JQ_NORM)' /tmp/harpbench_w4.json > /tmp/harpbench_w4.norm.json
	diff -u /tmp/harpbench_w1.norm.json /tmp/harpbench_w4.norm.json
	$(GO) run ./cmd/harpbench -quick -only fig10 -json /tmp/fig10_t1.json -workers 1 -trace /tmp/fig10_t1.jsonl
	$(GO) run ./cmd/harpbench -quick -only fig10 -json /tmp/fig10_t4.json -workers 4 -trace /tmp/fig10_t4.jsonl
	cmp /tmp/fig10_t1.jsonl /tmp/fig10_t4.jsonl

# Bench-regression gate: the committed BENCH_harpbench.json is a baseline,
# not just a trajectory record. Metrics are seed-deterministic, so any drift
# at any worker count fails; wall times fail only beyond -gate-wall-tol.
# After an intentional behaviour or performance change, refresh with:
#   $(GO) run ./cmd/harpbench -quick -workers 1 -json BENCH_harpbench.json
benchgate:
	$(GO) run ./cmd/harpbench -quick -workers 1 -gate BENCH_harpbench.json
	$(GO) run ./cmd/harpbench -quick -workers 4 -gate BENCH_harpbench.json

# The repo's host-time benchmark (five end-to-end workloads, per-layer
# breakdown); see benchmark/README.md and BENCHMARK.json.
bench:
	bash benchmark/run.sh

# Fault-injection soak: the loss-tolerance test surface under the race
# detector and the harpdebug invariant hooks, then the loss sweep at two
# worker counts — its convergence metrics must not depend on scheduling.
faultsoak:
	$(GO) test -race -tags harpdebug -run 'Fault|Crash|Dup|Loss|Reliab' ./internal/transport/ ./internal/agent/ ./internal/cosim/ ./internal/experiments/
	$(GO) run ./cmd/harpbench -quick -only losssweep -json /tmp/losssweep_w1.json -workers 1
	$(GO) run ./cmd/harpbench -quick -only losssweep -json /tmp/losssweep_w4.json -workers 4
	jq -S '$(JQ_NORM)' /tmp/losssweep_w1.json > /tmp/losssweep_w1.norm.json
	jq -S '$(JQ_NORM)' /tmp/losssweep_w4.json > /tmp/losssweep_w4.norm.json
	diff -u /tmp/losssweep_w1.norm.json /tmp/losssweep_w4.norm.json

# Scale smoke: the 1k tier of the scale study under the race detector, at
# two worker counts; outside the host-dependent keys the reports must be
# identical (the sharded kernel's dispatch order is worker- and
# shard-blind). The full 50k tier runs in the regular bench gate.
scale-smoke:
	$(GO) run -race ./cmd/harpbench -quick -only scale -scale-sizes 1000 -json /tmp/scale_w1.json -workers 1
	$(GO) run -race ./cmd/harpbench -quick -only scale -scale-sizes 1000 -json /tmp/scale_w4.json -workers 4
	jq -S '$(JQ_NORM)' /tmp/scale_w1.json > /tmp/scale_w1.norm.json
	jq -S '$(JQ_NORM)' /tmp/scale_w4.json > /tmp/scale_w4.norm.json
	diff -u /tmp/scale_w1.norm.json /tmp/scale_w4.norm.json

# Chaos soak: the self-healing machinery (failure detector, adoption,
# watchdog, chaos engine) under the race detector with the harpdebug
# invariant sweeps, then the chaos storm at two worker counts — every
# chaos key is a virtual-time quantity, so the normalised reports must
# match exactly.
chaos-soak:
	$(GO) test -race -tags harpdebug -run 'Detector|Chaos|Recover|GiveUps|RestartDuring' ./internal/agent/ ./internal/cosim/ ./internal/experiments/
	$(GO) run -race ./cmd/harpbench -quick -only chaos -json /tmp/chaos_w1.json -workers 1
	$(GO) run -race ./cmd/harpbench -quick -only chaos -json /tmp/chaos_w4.json -workers 4
	jq -S '$(JQ_NORM)' /tmp/chaos_w1.json > /tmp/chaos_w1.norm.json
	jq -S '$(JQ_NORM)' /tmp/chaos_w4.json > /tmp/chaos_w4.norm.json
	diff -u /tmp/chaos_w1.norm.json /tmp/chaos_w4.norm.json

# Trace smoke: a small co-simulation must reproduce the committed golden
# trace byte-for-byte, and harptrace must digest it (summary, windows and
# the Chrome/Perfetto conversion). Catches both schedule nondeterminism
# and exporter format drift in one shot.
trace-smoke:
	$(GO) run ./cmd/harpsim -topology fig1 -cosim -slotframes 30 -trace /tmp/harptrace_smoke.jsonl > /dev/null
	diff -u cmd/harptrace/testdata/smoke.jsonl /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace summary /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace windows /tmp/harptrace_smoke.jsonl
	$(GO) run ./cmd/harptrace chrome -o /tmp/harptrace_smoke_chrome.json /tmp/harptrace_smoke.jsonl
	jq -e '.traceEvents | length > 0' /tmp/harptrace_smoke_chrome.json > /dev/null

# Metrics smoke: run a small co-simulation with the live inspection
# endpoint, poll /healthz until the run publishes its final (done)
# snapshot, then require a healthy verdict, golden-diff the Prometheus
# exposition byte for byte (no timestamps by design, so the exposition
# is a pure function of the seeds), and check the JSON series and pprof
# endpoints answer. The endpoint serves the final snapshot until
# signalled, so the poll has no race with process exit.
METRICS_ADDR ?= 127.0.0.1:9464
metrics-smoke:
	$(GO) build -o /tmp/harpsim_smoke ./cmd/harpsim
	/tmp/harpsim_smoke -topology fig1 -cosim -slotframes 30 -http $(METRICS_ADDR) > /tmp/metrics_smoke.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 120); do \
		curl -sf http://$(METRICS_ADDR)/healthz 2>/dev/null | jq -e '.done == true' > /dev/null 2>&1 && break; \
		sleep 0.5; \
	done; \
	curl -sf http://$(METRICS_ADDR)/healthz | jq -e '.done == true and .ok == true' > /dev/null; \
	curl -sf http://$(METRICS_ADDR)/metrics > /tmp/metrics_smoke.prom; \
	diff -u cmd/harpsim/testdata/metrics_smoke.prom /tmp/metrics_smoke.prom; \
	curl -sf http://$(METRICS_ADDR)/series | jq -e 'length > 0' > /dev/null; \
	curl -sf http://$(METRICS_ADDR)/debug/pprof/cmdline > /dev/null

check: fmt vet lint build test race trace-smoke metrics-smoke

clean:
	$(GO) clean ./...
