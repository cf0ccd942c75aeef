"""Numerical gradient checking for models built on this substrate.

Hand-derived backward passes are this library's core risk; gradient
checking is the guard.  :func:`check_gradients` perturbs a sample of
parameter entries, compares central finite differences against the
analytic gradients, and reports the worst relative error — used by the
test suite on every layer and model, and available to users extending
the model zoo.  Nothing outside the tests imports it: it is their
reference oracle (``tests/test_nn_gradcheck.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["GradCheckResult", "check_gradients"]


@dataclass(frozen=True)
class GradCheckResult:
    """Outcome of a gradient check.

    Attributes:
        max_relative_error: worst relative error over the checked entries.
        worst_parameter: name of the parameter holding the worst entry.
        entries_checked: how many (parameter, index) pairs were probed.
        passed: whether the worst error stayed under the tolerance.
    """

    max_relative_error: float
    worst_parameter: str
    entries_checked: int
    passed: bool


def check_gradients(
    parameters: list[Parameter],
    loss_fn,
    backward_fn,
    entries_per_parameter: int = 2,
    epsilon: float = 1e-3,
    tolerance: float = 5e-2,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    Args:
        parameters: the parameters to probe.
        loss_fn: zero-argument callable returning the scalar loss; must be
            deterministic and side-effect free on parameter state (each
            call re-runs the forward pass).
        backward_fn: zero-argument callable that runs forward + backward
            once, leaving gradients accumulated on the parameters.
        entries_per_parameter: random entries probed per parameter.
        epsilon: finite-difference step.
        tolerance: pass threshold on the relative error.
        seed: entry-selection seed.

    Returns:
        The worst-case comparison across all probed entries.
    """
    if entries_per_parameter <= 0:
        raise ValueError("entries_per_parameter must be positive")
    rng = np.random.default_rng(seed)

    for p in parameters:
        p.zero_grad()
    backward_fn()
    analytic = {id(p): p.densified_grad().copy() for p in parameters}
    for p in parameters:
        p.zero_grad()

    worst = 0.0
    worst_name = ""
    checked = 0
    for p in parameters:
        grad = analytic[id(p)]
        flat = grad.ravel()
        if flat.size == 0:
            continue
        # Prefer entries with non-negligible gradient (zero-vs-zero
        # comparisons are vacuous); fall back to random entries.
        candidates = np.argsort(np.abs(flat))[::-1][: 4 * entries_per_parameter]
        picks = rng.choice(candidates, size=min(entries_per_parameter, len(candidates)), replace=False)
        for flat_index in picks:
            index = np.unravel_index(int(flat_index), grad.shape)
            original = p.value[index]
            p.value[index] = original + epsilon
            up = loss_fn()
            p.value[index] = original - epsilon
            down = loss_fn()
            p.value[index] = original
            numeric = (up - down) / (2 * epsilon)
            denom = max(abs(numeric) + abs(flat[flat_index]), 1e-8)
            relative = abs(numeric - flat[flat_index]) / denom
            checked += 1
            if relative > worst:
                worst = relative
                worst_name = p.name
    return GradCheckResult(
        max_relative_error=worst,
        worst_parameter=worst_name,
        entries_checked=checked,
        passed=worst <= tolerance,
    )
