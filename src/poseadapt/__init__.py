"""Sim2Real domain adaptation for 6D pose regression.

The pose space is discretized into rotation anchors and translation bins;
a shared-feature network classifies the nearest anchor per target and
regresses per-anchor residuals.  Training combines sparse-label
cross-entropy, anchor-substituted point-matching regression, and a
correlation-graph regularizer tying batch feature similarity to depth-bin
similarity.  A confidence-gated teacher/student loop adapts the model to
an unlabeled target domain.

Modules, in dependency order: ``autodiff`` (the loss's backward entry),
``geometry`` (poses, anchors, the 6D decode and its gradient), ``labeling``
(sparse scores), ``network`` (model, its backward, Adam, checkpoints),
``losses``, ``metrics`` (ADD / ADD-S, prediction),
``selftrain`` (teacher/student), ``synth`` (datasets), ``config``,
``reports``, ``experiment`` (the pipeline) and ``cli`` (its entry point).
"""

__version__ = "0.1.0"
