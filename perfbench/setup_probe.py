"""Time one scheduler construction in a fresh interpreter.

Usage::

    python3 perfbench/setup_probe.py <workload> <trainer_seed> [--trace]

The clock starts before ``import repro`` and stops once the workload's
``BQSched`` is constructed (workload, engine or fleet, plan embeddings,
isolated-run probes, adaptive mask).  Prints one JSON object on stdout.  With
``--trace`` the setup layers are wrapped after the import and their self
times are included; run the interpreter with ``-X importtime`` to get the
import breakdown on stderr.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    workload, trainer_seed = argv[0], int(argv[1])
    trace = "--trace" in argv[2:]
    from scenarios import SCENARIOS

    scenario = SCENARIOS[workload]
    tracer = None
    if trace:
        import repro  # noqa: F401  (imported before wrapping, timed by -X importtime)
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install_setup(tracer)
    try:
        scenario.build(trainer_seed)
        elapsed = time.perf_counter() - START
    finally:
        if tracer is not None:
            tracer.restore()
    result: dict = {"setup_s": elapsed}
    if tracer is not None:
        result["layers"] = {
            "workloads.make_s": tracer.self_s("workloads.make"),
            "encoder.plan_embed_s": tracer.self_s("encoder.plan_embed"),
            "knowledge.probe_s": tracer.self_s("knowledge.probe"),
            "knowledge.probes": tracer.counters["knowledge.probes"],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
