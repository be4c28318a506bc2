"""Run one canica command in-process with spans around each layer.

Usage: ``python -m perfbench.traced SPANS_JSON CLI_ARG...``. The wrappers
sit at the names the calling module looks up, then ``canica.cli.main``
runs the command unchanged; the spans are written out once it returns.
"""

import json
import os
import sys

from canica import cli, group_level, pipeline, reproducibility
from perfbench.tracing import FIT_GROUP, Tracer


def _subject(args, kwargs, result):
    return {"subject": args[0].subject_id}


def install(tracer):
    """Wrap every traced layer function where its caller looks it up."""
    for module, attr, name, describe in [
        (cli, "cmd_fit", "cli.command", None),
        (cli, "cmd_split_half", "cli.command", None),
        (cli, "read_matrix", "data_model.read_matrix",
         lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
        (cli, "write_matrix", "data_model.write_matrix", None),
        (cli, "fit_group", FIT_GROUP, None),
        (cli, "split_half", "reproducibility.split_half", None),
        (pipeline, "standardize", "data_model.standardize", None),
        (pipeline, "order_stability", "subject_level.order_stability", _subject),
        (pipeline, "svd_reduce", "subject_level.svd_reduce", _subject),
        (pipeline, "group_cca", "group_level.group_cca", None),
        (pipeline, "noise_threshold", "group_level.noise_threshold", None),
        (pipeline, "fastica", "source_separation.fastica",
         lambda a, k, r: {"iterations": r.n_iterations, "converged": r.converged}),
        (pipeline, "fit_empirical_null", "thresholding.fit_empirical_null", None),
        (pipeline, "threshold_map", "thresholding.threshold_map",
         lambda a, k, r: {"selected": r.n_selected}),
        (group_level, "bootstrap_max_correlations",
         "group_level.bootstrap_max_correlations", lambda a, k, r: {"draws": len(r)}),
        (reproducibility, "fit_group", FIT_GROUP,
         lambda a, k, r: {"caller": "reproducibility"}),
        (reproducibility, "build_report", "reproducibility.build_report", None),
    ]:
        tracer.wrap(module, attr, name, describe)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
