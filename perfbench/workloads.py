"""The benchmark's workloads: one generated dataset and one `imputebench
bench` grid each.

Every dataset is drawn by ``sample_lfm`` at rank 3 with Gaussian factors
and noise 0.1, from the workload seed; the program sees only the CSV. The
three grids stress different layers, so a change to one layer shows up on
the workload that loads it and not on the ones that bypass it:

- classic-grid is the grid users get by default (all patterns, the CLI's
  default methods), where ICE and knn do the work;
- ensemble-grid loads featurize and ensemble (the paper's two-layer
  ensembling) and bypasses ICE, knn and the costly masks;
- mask-sweep runs many small groups on a tall, narrow table at jobs=2 with
  adaptive proportions, loading missingness, the harness bookkeeping,
  scheduler and grid dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

RANK = 3
NOISE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    patterns: tuple[str, ...]  # empty means every pattern (``--patterns all``)
    methods: tuple[str, ...]
    jobs: int
    replicates: int
    adaptive_proportions: bool = False

    def bench_argv(self, data_dir: str, out_dir: str, seed: int, jobs: int) -> list[str]:
        argv = [
            "bench", "--datasets", data_dir,
            "--patterns", ",".join(self.patterns) or "all",
            "--methods", ",".join(self.methods),
            "--seeds", str(self.replicates), "--seed", str(seed),
            "--jobs", str(jobs), "--out", out_dir,
        ]
        if self.adaptive_proportions:
            argv.append("--adaptive-proportions")
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classic-grid", 50, 12, (), ("col-mean", "knn", "soft-impute", "ice"),
                 jobs=1, replicates=2),
        Workload("ensemble-grid", 150, 40, ("mcar", "self-masking", "block", "panel"),
                 ("col-mean", "soft-impute", "featurized-ridge", "ensemble"),
                 jobs=1, replicates=2),
        Workload("mask-sweep", 1000, 20, (), ("col-mean", "soft-impute"),
                 jobs=2, replicates=1, adaptive_proportions=True),
    )
}
