"""Central finite-difference harness for validating analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckError", "GradCheckReport", "finite_diff_check"]

STEP = 1e-6
_REL_FLOOR = 1e-8


class CheckError(Exception):
    """The harness could not run (e.g. a non-deterministic loss)."""


@dataclass
class GradCheckReport:
    per_block: dict  # block name -> max relative error
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.per_block.values()) if self.per_block else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def __str__(self):
        lines = [f"gradient check (tolerance {self.tolerance:g})"]
        for name, err in sorted(self.per_block.items()):
            mark = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"  {name}: {err:.3e} {mark}")
        return "\n".join(lines)


def finite_diff_check(loss_fn, blocks: dict, tolerance: float) -> GradCheckReport:
    """Compare loss_fn's analytic gradients against central differences.

    loss_fn(blocks) must return (loss, grads) deterministically; the same
    blocks must give bit-identical losses, which is verified up front.
    Relative error per entry is |a-n| / max(|a|, |n|, 1e-8), reported as
    the max over each block.
    """
    loss0, grads = loss_fn(blocks)
    loss_again, _ = loss_fn(blocks)
    if loss0 != loss_again:
        raise CheckError(f"loss_fn is not deterministic: {loss0!r} != {loss_again!r}")

    report = {}
    for name, arr in blocks.items():
        analytic = grads[name]
        worst = 0.0
        flat = arr.reshape(-1)
        a_flat = np.asarray(analytic, dtype=np.float64).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + STEP
            up, _ = loss_fn(blocks)
            flat[k] = orig - STEP
            down, _ = loss_fn(blocks)
            flat[k] = orig
            numeric = (up - down) / (2.0 * STEP)
            a = a_flat[k]
            err = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            if err > worst:
                worst = err
        report[name] = worst
    return GradCheckReport(report, tolerance)
