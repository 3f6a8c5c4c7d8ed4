"""First-class, serialisable experiments.

This package is the experiment layer's interface, mirroring the paper's
layered design (application / device / RTM layers talking only through
well-defined interfaces): an :class:`ExperimentSpec` declares *what* to run
purely by registry references and override tables, :func:`run` /
:func:`run_many` execute specs anywhere (in-process, across worker
processes, or from a committed spec file on another machine), and the
unified :class:`~repro.registry.Registry` layer makes every axis —
scenarios, managers, platforms, policies — discoverable by name.

Quick start::

    from repro.experiments import ExperimentSpec, run, run_many

    spec = ExperimentSpec(scenario="rush_hour", manager="rtm", seed=3)
    result = run(spec)
    print(spec.spec_id(), result.trace.violation_rate())

    batch = run_many([spec, ExperimentSpec(scenario="steady")], workers=2)

Batches execute through a named backend (``serial`` / ``process`` /
``batched``, see :mod:`repro.experiments.backends`), a registered function
that only executes and reports each spec's outcome through ``run_many``'s
one ``emit``; ``run_many`` streams outcomes to the results store, retries
failures and assembles the batch.  All backends produce bit-identical
traces::

    batch = run_many(grid_specs(scenarios, managers, seeds=range(8)),
                     backend="batched")

Specs round-trip through TOML/JSON files (``ExperimentSpec.load`` /
``load_specs`` / ``dump_specs``) and the CLI runs them directly:
``repro-experiments run spec.toml``.
"""

from repro.experiments.backends import EXECUTION_BACKEND_REGISTRY
from repro.experiments.managers import MANAGER_REGISTRY, make_manager
from repro.experiments.runner import (
    ExperimentBatch,
    ExperimentResult,
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
    grid_specs,
    run,
    run_many,
)
from repro.experiments.spec import (
    ExperimentSpec,
    SpecError,
    dump_specs,
    load_specs,
    specs_to_toml,
)

__all__ = [
    "EXECUTION_BACKEND_REGISTRY",
    "MANAGER_REGISTRY",
    "make_manager",
    "ExperimentBatch",
    "ExperimentResult",
    "build_manager_from_spec",
    "build_scenario_from_spec",
    "build_simulator_config",
    "grid_specs",
    "run",
    "run_many",
    "ExperimentSpec",
    "SpecError",
    "dump_specs",
    "load_specs",
    "specs_to_toml",
]
