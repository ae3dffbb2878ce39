# Convenience targets for the AL-VC reproduction.

.PHONY: install test bench gates examples report all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

# The whole gate set in one command: the CI-sized E19/E21-E26 benches
# and the Fig. 4 telemetry pair into a scratch directory, then every
# row of benchmarks/gates.py over them and the committed records.
GATE_BENCHES = e19_event_throughput e21_control_plane e22_routing \
	e23_service e24_opt e25_workload e26_dataplane

gates:
	@out=$$(mktemp -d) && \
	pytest benchmarks/test_bench_fig4_al_construction.py --benchmark-only \
		--benchmark-json=$$out/bench-off.json && \
	ALVC_TELEMETRY=1 pytest benchmarks/test_bench_fig4_al_construction.py \
		--benchmark-only --benchmark-json=$$out/bench-on.json && \
	for bench in $(GATE_BENCHES); do \
		id=$${bench%%_*}; \
		env ALVC_BENCH_$$(echo $$id | tr a-z A-Z)_OUT=$$out/bench-$$id.json \
			pytest benchmarks/test_bench_$$bench.py --benchmark-only || exit 1; \
	done && \
	python benchmarks/gates.py check && \
	python benchmarks/gates.py check $$out/bench-*.json

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

report:
	python -m repro.cli report REPORT.md

all: install test bench examples report
