# Convenience targets; everything is plain dune underneath.

.PHONY: all build test trace-smoke audit-smoke fleet-smoke model-smoke \
	health-smoke unused-exports smoke clean

all: build

build:
	dune build

# Includes the golden-output test (every experiment's stdout against
# test/golden/all.expected) and the reference-queue property.
test:
	dune runtest

# Run one experiment with the trace recorder armed, then validate the
# exported Chrome trace (parses, >0 events) with the CLI's own checker.
trace-smoke:
	dune exec bin/psbox_sim.exe -- --trace-out _build/trace-smoke.json budget
	dune exec bin/psbox_sim.exe -- trace-check _build/trace-smoke.json

# Run the multi-rail budget co-run with the joule audit armed, then verify
# the report's conservation claims from the outside: audit-check re-folds
# every rail's rows and requires bit-equality with the attributed total
# and the kernel energy ledger.
audit-smoke:
	dune exec bin/psbox_sim.exe -- --audit-out _build/audit-smoke.txt \
		--flame-out _build/flame-smoke.txt budget
	dune exec bin/psbox_sim.exe -- audit-check _build/audit-smoke.txt

# Run a small fleet sequentially and sharded over 4 domains, and require
# the two JSON reports to be byte-identical: the work-stealing pool and
# the mergeable-snapshot reduction must be invisible in the output.
fleet-smoke:
	dune exec bin/psbox_sim.exe -- fleet --devices 24 --jobs 1 --seed 42 \
		--scenario budget --fleet-out _build/fleet-j1.json
	dune exec bin/psbox_sim.exe -- fleet --devices 24 --jobs 4 --seed 42 \
		--scenario budget --fleet-out _build/fleet-j4.json
	cmp _build/fleet-j1.json _build/fleet-j4.json
	@echo "fleet-smoke: jobs 1 and jobs 4 fleet JSON byte-identical"

# Fit counter-driven power models on one seed and validate on another:
# every rail's held-out MAPE must stay within 5%, and a deliberately
# perturbed model must trip the online drift detector.
model-smoke:
	dune exec bin/psbox_sim.exe -- model-check --max-mape 5 \
		--model-out _build/model-smoke.json
	dune exec bin/psbox_sim.exe -- model-check --perturb 10 --expect-drift \
		> /dev/null
	@echo "model-smoke: held-out MAPE within 5%, drift alarm fires under perturbation"

# Drift-inject a 12% coefficient error, run the health engine's default
# rule pack with the recalibration responder, and require: the incident
# log byte-stable across two runs, the drift incident fired and the model
# hot-swapped (--expect-heal), and the post-swap held-out MAPE back under
# the 5% gate.
health-smoke:
	dune exec bin/psbox_sim.exe -- health-check --perturb 12 --expect-heal \
		--max-mape 5 --health-out _build/health-smoke-1.json
	dune exec bin/psbox_sim.exe -- health-check --perturb 12 \
		--health-out _build/health-smoke-2.json
	cmp _build/health-smoke-1.json _build/health-smoke-2.json
	@echo "health-smoke: drift fired, model hot-swapped, post-swap MAPE < 5%, log byte-stable"

# Fail on any `val` in lib/**/*.mli that nothing outside its own module
# names (no allowlist: delete the export, or use it).
unused-exports:
	bash tools/unused_exports.sh

# Fast end-to-end confidence: full build, the whole test suite (including
# the golden output of every experiment), one reduced experiment driven
# through the real CLI, a validated trace export, a bit-exactly conserved
# joule audit, and no unused exports.
smoke:
	dune build
	dune runtest
	dune exec bin/psbox_sim.exe -- run fig3
	$(MAKE) trace-smoke
	$(MAKE) audit-smoke
	$(MAKE) fleet-smoke
	$(MAKE) model-smoke
	$(MAKE) health-smoke
	$(MAKE) unused-exports

clean:
	dune clean
