# Convenience targets for the repro library.

.PHONY: install test check bench bench-smoke bench-codesign-selftest bench-kernel bench-pipeline bench-obs bench-serve bench-journal bench-ledger bench-tempering serve-smoke scrape-smoke crash-smoke fuzz-smoke tune-smoke report examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/ -q

# Robustness gate: the chaos fault-injection suite plus a strict deep
# verification of the smoke workload (see docs/robustness.md).
check:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m pytest tests/test_chaos.py -q
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro check smoke --verify strict

bench:
	pytest benchmarks/ --benchmark-only

# Tiny engine shakedown (<30 s): two short codesign jobs through the
# process pool, no cache, telemetry trace into results/.
bench-smoke:
	@mkdir -p results
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro run smoke \
		--jobs 2 --no-cache --trace results/smoke_trace.jsonl

# Co-design benchmark self-test (~5 s): the harness's own unit tests —
# workload table, layer tracer and the sweep/compare statistics (see
# benchmarks/codesign/README.md).
bench-codesign-selftest:
	python3 -m pytest benchmarks/codesign -q

# Exchange-kernel throughput gate (<30 s): times the array backend against
# the object model at 448/1792 fingers and fails below 2x at 1792 (the
# full sweep with the recorded speedup table is `pytest benchmarks/bench_kernel.py`).
bench-kernel:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_kernel.py --smoke

# End-to-end staged-pipeline smoke (<30 s): one assign+density+IR flow
# iteration on both backends at 4096 fingers, failing below 2x (the full
# 100k sweep writing results/BENCH_pipeline.json is
# `pytest benchmarks/bench_pipeline.py`).
bench-pipeline:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_pipeline.py --smoke

# Observability null-path gate (<30 s): the instrumented SA loop with
# telemetry disabled must be within 5% of a telemetry-free replica
# (see docs/observability.md); writes results/BENCH_obs.json.
bench-obs:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_obs.py

# Serving-layer end-to-end smoke (<60 s): start a real `repro serve`
# subprocess on an ephemeral port, POST a co-design job, prove the
# identical second request is served without re-executing, then SIGTERM
# and require a clean drain with exit code 143 (see docs/serving.md).
serve-smoke:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro.serve.smoke

# Telemetry-plane smoke (<60 s): start a real daemon, submit a job, GET
# /metrics, run the exposition through the promtool-style validator, and
# require the request-latency histogram and queue gauges to show the
# traffic; then SIGTERM -> 143 (see docs/observability.md).
scrape-smoke:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro.serve.scrape_smoke

# Perf-regression ledger gate (<5 min): run every registered bench, append
# schema-versioned records (git rev, seed, host fingerprint) to
# results/BENCH_history.jsonl, then gate the newest records against the
# committed results/BENCH_baseline.json (see docs/observability.md).
bench-ledger:
	@mkdir -p results
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro bench run
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro bench compare --gate 20

# kill -9 recovery smoke (<90 s): SIGKILL a journaled daemon mid-stream,
# restart it on the same journal + cache, and require every submitted
# digest to settle byte-identically to a crash-free reference without
# re-executing the work that already settled (see docs/robustness.md).
crash-smoke:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro.serve.crash_smoke

# Serving-layer throughput gate (<60 s): cold/hot/duplicate request mixes
# against an in-process daemon; fails below the hot-cache req/s floor or
# if the duplicate burst executes more than one job.  Writes
# results/BENCH_serve.json.
bench-serve:
	@mkdir -p results
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_serve.py --smoke

# Durability overhead gate (<90 s): the journal on the hot serve path must
# stay within 10% of the unjournaled daemon's hot req/s, and periodic SA
# checkpointing must cost <= 5% anneal walltime.  Writes
# results/BENCH_journal.json.
bench-journal:
	@mkdir -p results
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_journal.py

# Tuning-stack smoke (<30 s): a tiny sweep run twice against a throwaway
# cache (must replay >= 90% from cache with byte-identical reports) plus a
# K=2 tempering run whose sa.swap trace must validate (see docs/tuning.md).
tune-smoke:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro.tune.smoke

# Parallel-tempering quality gate (<60 s): K=4 replica exchange must reach
# an equal-or-better Eq.-3 cost than the single chain on the benchmark
# circuits at the pinned seed.  Writes results/BENCH_tempering.json.
bench-tempering:
	@mkdir -p results
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python benchmarks/bench_tempering.py --smoke

# Differential-fuzz gate (~60 s, fixed seed so CI failures replay locally):
# a 200-case campaign over every oracle, then a replay of the checked-in
# minimized corpus (see docs/fuzzing.md).
fuzz-smoke:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro fuzz \
		--cases 200 --seed 0 --corpus tests/data/fuzz_corpus
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro fuzz replay \
		--corpus tests/data/fuzz_corpus

report:
	python -m repro report --output results/REPORT.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
