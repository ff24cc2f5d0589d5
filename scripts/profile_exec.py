#!/usr/bin/env python
"""cProfile one operation of a perf/ workload (``make profile-exec``).

Builds the workload exactly as ``perf/run.py`` does (default: the
``exec_lu25d`` point — ``pdgetrf`` conflux, n=512, P=16, v=16, c=2;
``--workload`` takes any name in the ledger, e.g. ``sweep_closed``),
runs one warm-up operation, profiles the next and prints the top
functions by own time, so a performance change starts from a number.
On the executed 2.5D workloads the top of the list is the batched
helpers of ``engine/distops.py`` — ``layered_reduce``, the trailing
update's ``blas.gemm_acc_many`` (one in-place ``dgemm`` per rank on
zero-padded operands, its BLAS time included) under
``panel_fan_out_update`` (with its ``exchange``), then
``RankStore.put`` (about 4 600 per ``exec_lu25d`` operation: COSTA's
``redistribute`` and ``scatter_from``, the receivers of each
broadcast, one chunk landing per rank and 1D scatter), the
tournament's ``blas.getrf``, ``trsm_rows`` under ``solve_1d`` (one
in-place ``dtrtrs`` per rank and panel), COSTA's ``redistribute`` and
the 1D scatters ``distribute_rows_1d`` / ``assemble_cols_1d``.  A
per-message ``ship``, a per-tile reduce, a ``blas.trsm`` or
``np.isin`` under ``dist_step``, a ``put`` from ``local_panels`` (it
makes one ``put_many`` per rank), or a row-indexed write or a
per-tile-column product loop under ``panel_fan_out_update`` (either
shows as its own time growing past ``gemm_acc_many``'s) reappearing
there is a regression.
On ``exec_chol25d`` the update is first: ``gemm_acc_many``, then
``panel_fan_out_update``'s own time (building the padded operands),
then COSTA's ``redistribute``, ``layered_reduce``, ``RankStore.put``
and COnfCHOX's ``dist_step`` (COSTA's tiles come from
``BlockCyclicLayout._tiles``); a ``count_nonzero`` under the update, or
an ``owner_rank`` / ``_check_block`` per tile under COSTA, is a
regression.
On ``exec_bulk`` the top is BLAS — ``blas.gemm_acc`` inside
``Matmul25DSchedule.dist_step``, about half the operation — then the
2D Cholesky's ``dist_step`` and COSTA's ``redistribute``; an
``ndarray.copy``, ``hstack`` or ``Machine.bcast`` under the SUMMA is a
regression.
On ``plan_grid`` the top is what the ranking reads and nothing else:
``_term_total``, ``_class_basis`` and ``_residue_reduce`` under
``TermBatch.recv_words`` (small calls over residue classes, one per
term: COnfLUX's tournament profiles join at most Pr tail steps to
their affine head's classes), then ``TermBatch.add`` — ``_add``,
``affine`` (one profile per distinct ``(c0, c1, lo, hi)``) and
COnfLUX's ``accounting``.  Any of these back at the top is a
regression: a step-long array or bincount under ``TermBatch.add`` or
``recv_words`` for a COnfLUX candidate (``StepFn.values`` under
``recv_words``, ``butterfly_pair_exchanges`` or ``np.maximum`` over
``N/v`` steps in ``accounting``), ``_basis_moments`` or
``_residue_reduce`` running twice for one tournament term, a per-round
loop in ``butterfly_pair_exchanges``, an n-long ``arange`` under
``conversion_words``, ``_score`` or the ``hash`` of a
``BlockCyclicLayout`` (the whole candidate product being scored), or
``TermBatch.evaluate`` anywhere.
On ``sweep_closed`` the top is per-call overhead: ``_term_total`` and
``_residue_reduce`` (about 1 550 and 1 050 calls per operation, most
on small grids), then ``StepAccounting._reduce`` adding each term's
grid-space total into the per-rank counters, ``_entries`` joining a
pass's head classes to its explicit steps, and ``_own_tail`` over the
steps past an ownership cut.  A pass shares one memo per
``(shape, nsteps)`` group, so ``_class_basis`` runs about 180 times
and ``StepFn.values`` about 110 (short heads and tails, and the words
of the ungated two-axis flop products).  A regression shows as a
``StepFn.values`` over ``N/v`` steps under a msgs pass (its calls back
near 250), ``_class_basis`` built twice for one ``(lo, hi, period)``
in a group, two ``_residue_reduce`` calls for a single negated
non-ownership atom (its calls back near 1 300), or a ``[rank_key,
...]`` gather, a ``joint @ dmat`` product or ``np.add.at`` under
``_residue_reduce``.
cProfile taxes every Python call but no native code: use it to find
candidates, then measure with ``perf/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    sys.path.insert(0, _path)


def main(argv: list[str] | None = None) -> int:
    from perf import run, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="exec_lu25d",
                        choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    run.pin_blas_threads()              # before NumPy is first imported

    workload = workloads.load(args.workload)(args.workload, 1, "full")
    workload.setup()
    profile = cProfile.Profile()

    def operation(i: int, call) -> list[str]:
        ctx = workload.prepare(i)
        try:
            return workload.check(ctx, call(workload.run, ctx))
        finally:
            workload.cleanup(ctx)       # e.g. sweep_fanout's cache dir

    try:
        operation(0, lambda run_op, ctx: run_op(ctx))       # warm-up
        failures = operation(1, profile.runcall)
    finally:
        workload.close()
    stats = pstats.Stats(profile)
    stats.sort_stats("tottime").print_stats(25)
    print(f"{args.workload}: {stats.total_calls} calls, "
          f"{stats.total_tt:.3f} s under the profiler; "
          f"check: {failures or 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
