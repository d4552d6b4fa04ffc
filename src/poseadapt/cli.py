"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep-threshold.  Every command is
reproducible from its config file and seed alone.  ``sweep-threshold``
reads the run's teacher; a teacher without CTC is ``train --stage
teacher`` under ``train.ctc_weight: 0`` in its own ``--out``.  Exit codes:
0 success, 2 configuration error, 3 missing dependency, 4 I/O error,
5 training failure.  The command runs one BLAS thread per process and at
most one training worker per CPU; numpy loads inside ``main``, after
``entrypoint`` pins the threads.  A call of ``main`` from Python trains
serially.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    CheckpointIncompatibleError,
    ConfigError,
    DependencyError,
    InvalidArgumentError,
    PoseAdaptError,
    TrainingFailureError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_IO = 4
EXIT_TRAINING = 5

# error class -> exit code, the first match wins; any other error is I/O
EXIT_CODES = (((ConfigError, CheckpointIncompatibleError, InvalidArgumentError), EXIT_CONFIG),
              (DependencyError, EXIT_DEPENDENCY), (TrainingFailureError, EXIT_TRAINING))


def build_parser():
    from .experiment import STAGES
    p = argparse.ArgumentParser(prog="poseadapt",
                                description="Sim2Real pose-regression adaptation experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--scalar-task", action="store_true",
                        help="use the scalar-target task variant")

    sp = sub.add_parser("gen-data", help="generate the benchmark dataset")
    common(sp)

    sp = sub.add_parser("train", help="train one stage")
    common(sp)
    sp.add_argument("--stage", required=True, choices=list(STAGES))

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", required=True)

    sp = sub.add_parser("sweep-threshold", help="confidence-threshold sweep of the run's "
                        "teacher; a run at train.ctc_weight 0 has one without CTC")
    common(sp)
    return p


def resolve_config(args):
    from .config import config_from_dict, load_config
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.scalar_task:
        overrides["scalar_task"] = True
    if args.config is not None:
        return load_config(args.config, overrides)
    return config_from_dict(overrides)


def main(argv=None, workers=1) -> int:
    """Run one command; up to ``workers`` processes train a stage's objects."""
    import numpy as np

    from . import experiment
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # no floating-point warnings: a diverging run fails once, at its non-finite loss
        with np.errstate(all="ignore"):
            if args.command == "gen-data":
                experiment.run_gen_data(cfg)
            elif args.command == "train":
                experiment.run_train(cfg, args.stage, workers)
            elif args.command == "eval":
                experiment.run_eval(cfg, args.checkpoint)
            elif args.command == "sweep-threshold":
                experiment.run_sweep(cfg)
    except (PoseAdaptError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(e, cls)), EXIT_IO)
    return EXIT_OK


def entrypoint():
    # numpy reads these when it loads; a value the user set wins
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # macOS and Windows have no sched_getaffinity
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    raise SystemExit(main(workers=workers))


if __name__ == "__main__":
    entrypoint()
