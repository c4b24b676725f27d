"""Run metrics: per-variable MSE, detection latency, false-alarm rate."""

from __future__ import annotations

import numpy as np


def mse_per_variable(estimates: np.ndarray, truth: np.ndarray, labels, skip: int = 0) -> dict:
    """Mean squared error per column, skipping an initial transient.

    ``estimates`` and ``truth`` are (steps, dim) arrays aligned in time;
    rows before ``skip`` are excluded.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"estimates {est.shape} and truth {tru.shape} differ in shape")
    err = (est[skip:] - tru[skip:]) ** 2
    means = err.mean(axis=0) if err.size else np.zeros(est.shape[1])
    return {str(lab): float(v) for lab, v in zip(labels, means)}


def mean_mse(per_variable: dict) -> float:
    if not per_variable:
        return 0.0
    return float(np.mean(list(per_variable.values())))


def detection_latency_steps(flags, onset_step: int) -> int | None:
    """Steps between attack onset and the first alarm at or after it."""
    flags = np.asarray(flags, dtype=bool)
    hits = np.nonzero(flags[onset_step:])[0]
    return int(hits[0]) if hits.size else None


def false_alarm_rate(flags, attack_windows, times) -> float:
    """Fraction of alarm flags raised outside every attack window.

    A window covers start <= t < end, the steps ``sim.apply_attacks`` attacks.
    """
    flags = np.asarray(flags, dtype=bool)
    times = np.asarray(times, dtype=float)[: flags.shape[0]]
    outside = np.ones_like(flags, dtype=bool)
    for start, end in attack_windows:
        outside &= ~((times >= start - 1e-12) & (times < end - 1e-12))
    total = int(outside.sum())
    if total == 0:
        return 0.0
    return float(flags[outside].sum() / total)
