"""Alpha-beta-gamma performance model.

The paper reports *achieved % of machine peak* on Piz Daint XC40 nodes
(2 x Intel Xeon E5-2695 v4, Cray Aries).  Our substrate is a counting
simulator, so time-to-solution is derived from the counted per-superstep
costs with the standard distributed-memory cost model

    t_step = max(flops / (peak * eff), (1 - overlap) * words * 8 / beta)
             + msgs * alpha
    t_total = sum over supersteps of t_step,

where the per-step maxima over ranks (from
:class:`~repro.machine.stats.ColumnarStepLog`) serve as the bulk-synchronous
critical path.  ``eff`` models local BLAS efficiency as a saturating
function of the per-rank working-set size: the paper observes roughly 40%
of peak once ``N^2 / P > 2^27`` and a latency-dominated collapse below
that, which a surface-to-volume half-saturation constant reproduces.

This model is a *substitution* for the paper's wall-clock measurements
(documented in ARCHITECTURE.md, "Substitutions"); relative orderings and
scaling shapes — who wins, where the latency-bound corner starts — are
what it preserves, not absolute seconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .stats import ColumnarStepLog

__all__ = ["MachineParams", "PIZ_DAINT_XC40", "PerfModel", "TimeBreakdown"]


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """Hardware parameters of one simulated node/rank.

    Attributes
    ----------
    peak_flops:
        Double-precision peak of one rank, flop/s.
    bandwidth_bytes:
        Injection bandwidth per rank, bytes/s (beta).
    latency_s:
        Per-message latency, seconds (alpha).
    word_bytes:
        Element size (8 for float64).
    blas_eff_max:
        Asymptotic local-BLAS efficiency (fraction of peak the node code
        achieves on very large tiles).
    blas_halfsat_words:
        Per-rank working-set size (words) at which local efficiency
        reaches half of ``blas_eff_max``.
    overlap:
        Fraction of bandwidth cost hidden behind computation
        (asynchronous progress), in [0, 1).
    """

    peak_flops: float
    bandwidth_bytes: float
    latency_s: float
    word_bytes: int = 8
    blas_eff_max: float = 0.62
    blas_halfsat_words: float = 2.0 ** 24
    overlap: float = 0.4

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.bandwidth_bytes <= 0:
            raise ValueError("peak_flops and bandwidth must be positive")
        if not 0 <= self.overlap < 1:
            raise ValueError("overlap must be in [0, 1)")
        if not 0 < self.blas_eff_max <= 1:
            raise ValueError("blas_eff_max must be in (0, 1]")

    def blas_efficiency(self, local_words: float) -> float:
        """Saturating efficiency of local BLAS on a working set of
        ``local_words`` words per rank."""
        if local_words <= 0:
            return self.blas_eff_max * 1e-3
        return self.blas_eff_max * local_words / (local_words
                                                  + self.blas_halfsat_words)


#: One XC40 *rank* = one socket of an E5-2695 v4 node (the paper places two
#: MPI ranks per dual-socket node).  18 cores x 2.1 GHz x 16 DP flop/cycle.
PIZ_DAINT_XC40 = MachineParams(
    peak_flops=18 * 2.1e9 * 16,
    bandwidth_bytes=5.25e9,   # ~10.5 GB/s Aries injection per node, 2 ranks
    latency_s=1.8e-6,
)


@dataclasses.dataclass(frozen=True)
class TimeBreakdown:
    """Decomposed execution-time estimate."""

    compute_s: float
    bandwidth_s: float
    latency_s: float
    total_s: float
    achieved_flops: float
    peak_fraction: float

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


class PerfModel:
    """Turns a :class:`ColumnarStepLog` into a time / %-of-peak
    estimate."""

    def __init__(self, params: MachineParams = PIZ_DAINT_XC40) -> None:
        self.params = params

    def _step_times(self, flops_max, recv_words_max, msgs_max,
                    local_words: float):
        """(compute, bandwidth, latency) of supersteps — the one BSP
        per-step formula, elementwise over scalars or arrays."""
        p = self.params
        eff = p.blas_efficiency(local_words)
        t_comp = flops_max / (p.peak_flops * eff)
        t_bw = recv_words_max * p.word_bytes / p.bandwidth_bytes
        t_lat = msgs_max * p.latency_s
        return t_comp, t_bw, t_lat

    def evaluate(self, log: ColumnarStepLog, nranks: int,
                 local_words: float) -> TimeBreakdown:
        """Estimate time and achieved fraction of machine peak.

        Parameters
        ----------
        log:
            Per-superstep maxima recorded by the algorithm, consumed as
            whole-run columns (no per-step record is materialized).
            Must hold at least one step: a trace run evaluated with
            ``steps="none"`` (the closed-form sweep default) carries no
            per-step data, and silently timing it would return nonsense
            — re-trace with ``steps="columnar"`` instead.
        nranks:
            Number of ranks ``P`` (for the peak of the whole machine).
        local_words:
            Per-rank working-set size (typically ``N^2 / P``), which sets
            the local-BLAS efficiency.
        """
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if len(log) == 0:
            raise ValueError(
                "cannot evaluate an empty step log — the result was "
                "traced with steps='none' (no per-step maxima exist); "
                "re-run the trace with steps='columnar'")
        p = self.params
        t_comp, t_bw, t_lat = self._step_times(
            log.column("flops_max"), log.column("recv_words_max"),
            log.column("msgs_max"), local_words)
        comp = float(t_comp.sum())
        bw = float(t_bw.sum())
        lat = float(t_lat.sum())
        total = float((np.maximum(t_comp, (1.0 - p.overlap) * t_bw)
                       + t_lat).sum())
        if total <= 0:
            total = max(lat, 1e-30)
        achieved = log.total("flops_total") / total
        return TimeBreakdown(
            compute_s=comp, bandwidth_s=bw, latency_s=lat, total_s=total,
            achieved_flops=achieved,
            peak_fraction=achieved / (nranks * p.peak_flops),
        )

    def time_closed_form(self, flops_max: float, words_max: float,
                         msgs_max: float, local_words: float) -> float:
        """One-shot estimate without a step log (whole run as one step)."""
        t_comp, t_bw, t_lat = self._step_times(flops_max, words_max,
                                               msgs_max, local_words)
        return max(t_comp, (1.0 - self.params.overlap) * t_bw) + t_lat
