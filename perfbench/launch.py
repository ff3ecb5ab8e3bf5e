"""Run one repronet CLI command in this fresh interpreter and record its timings.

    python3 perfbench/launch.py RECORD.json [--trace TRACE_ID]
                                [--sigmas QUERIES.json] -- <cli arguments>

This does what the ``repronet`` console script does (``repronet.cli.main``
with the given arguments) and adds two clock reads, when the command's
set-up (``_Context``: scenario, network, initial state, partition) is done
and when ``main`` returns, then reads the peak resident set.  The clock
reads are ``time.monotonic`` values, which share one clock with the parent
process on Linux, so the parent measures set-up from the moment it started
this interpreter.

``--trace`` wraps the public functions of every layer under the names their
callers look them up by and records one span per call (name, start, end,
parent span) in memory; the spans are written to RECORD.json when the
command ends.  ``--sigmas`` asks ``PrivacySpec.calibrate`` for the noise
scale of listed support patterns after the command has returned (outside the
timed window), so the checks see the sigma the command itself used, from its
calibration cache.
"""

import json
import sys
import time

import repronet.cli as cli
from repronet.privacy import PrivacySpec


class _Spans:
    """Span recorder: rows of [parent, name index, start ns, end ns, failed]."""

    def __init__(self):
        self.names: list[str] = []
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            row = [stack[-1] if stack else -1, index, 0, 0, 0]
            stack.append(len(rows))
            rows.append(row)
            row[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                row[4] = 1
                raise
            finally:
                row[3] = clock()
                stack.pop()

        return traced

    def count(self, fn, name):
        counters = self.counters
        counters[name] = 0

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


# (module, class or None, attribute, span name).  Each entry is the binding
# the calling module looks the function up by, so an import by name
# (``from .protocol import run_pipeline`` in analysis) is its own entry.
TRACED = [
    ("repronet.cli", None, "main", "cli.main"),
    ("repronet.cli", None, "load_scenario", "scenario.load"),
    ("repronet.cli", None, "build_network", "scenario.build_network"),
    ("repronet.cli", None, "integrate", "model.integrate"),
    ("repronet.cli", None, "build_matrix", "reproduction.build_matrix"),
    ("repronet.cli", None, "network_reproduction", "reproduction.network_reproduction"),
    ("repronet.reproduction", None, "spectral_radius", "reproduction.spectral_radius"),
    ("repronet.reproduction", None, "cluster_matrix", "reproduction.cluster_matrix"),
    ("repronet.analysis", None, "cluster_matrix", "reproduction.cluster_matrix"),
    ("repronet.analysis", None, "cern_vector", "reproduction.cern_vector"),
    ("repronet.analysis", None, "lern_vector", "reproduction.lern_vector"),
    ("repronet.privacy", "PrivacySpec", "calibrate", "privacy.calibrate"),
    ("repronet.privacy", None, "calibrate_sigma", "privacy.calibrate_sigma"),
    ("repronet.protocol", None, "bounded_gaussian_randomize", "privacy.randomize"),
    ("repronet.protocol", None, "shuffle", "privacy.shuffle"),
    ("repronet.protocol", None, "stream", "seeding.stream"),
    ("repronet.protocol", None, "run_pipeline", "protocol.run_pipeline"),
    ("repronet.analysis", None, "run_pipeline", "protocol.run_pipeline"),
    ("repronet.protocol", "LocalAuthority", "handle", "protocol.authority_handle"),
    ("repronet.protocol", None, "step6_assemble", "protocol.assemble"),
    ("repronet.analysis", None, "rmse_sweep", "analysis.rmse_sweep"),
    ("repronet.analysis", None, "threshold_report", "analysis.threshold_report"),
    ("repronet.csvio", None, "write_states_csv", "csvio.write_states"),
    ("repronet.csvio", None, "write_rn_csv", "csvio.write_rn"),
    ("repronet.csvio", None, "write_accuracy_csv", "csvio.write_accuracy"),
    ("repronet.csvio", None, "write_accuracy_summary_csv", "csvio.write_accuracy"),
    ("repronet.csvio", None, "write_threshold_csvs", "csvio.write_threshold"),
]
# Called ~10^5 times per cold calibration, so counted without a span.
COUNTED = [("repronet.privacy", None, "delta_c", "privacy.delta_c")]


def _install(spans: _Spans) -> None:
    for entries, make in ((TRACED, spans.wrap), (COUNTED, spans.count)):
        for module_name, class_name, attribute, name in entries:
            owner = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(owner, class_name)
            setattr(owner, attribute, make(getattr(owner, attribute), name))


def _peak_rss_kib() -> int:
    """Peak resident set of this program.

    ``ru_maxrss`` would also count the parent's resident set at the fork that
    started this interpreter; VmHWM belongs to the image started by exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _sigmas(path: str) -> list:
    """Noise scale of each requested (spec, support pattern) pair."""
    with open(path) as fh:
        queries = json.load(fh)
    out = []
    for query in queries:
        spec = PrivacySpec(
            epsilon0=query["epsilon0"], delta=query["delta"], k=query["k"],
            bounds=tuple(query["bounds"]),
        )
        out.append([spec.calibrate(mask).sigma for mask in query["patterns"]])
    return out


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1 :]
    record_path = options[0]
    trace_id = options[options.index("--trace") + 1] if "--trace" in options else None
    sigmas = options[options.index("--sigmas") + 1] if "--sigmas" in options else None

    record = {}

    class _TimedContext(cli._Context):
        def __init__(self, args):
            super().__init__(args)
            record["setup_done"] = time.monotonic()

    cli._Context = _TimedContext
    spans = None
    if trace_id is not None:
        spans = _Spans()
        _install(spans)
    code = cli.main(cli_args)
    record["done"] = time.monotonic()
    record["code"] = code
    record["peak_rss_kib"] = _peak_rss_kib()
    if spans is not None:
        record["trace"] = {
            "trace_id": trace_id,
            "names": spans.names,
            "spans": list(spans.rows),
            "counters": dict(spans.counters),
        }
    if sigmas is not None and code == 0:
        record["sigmas"] = _sigmas(sigmas)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
