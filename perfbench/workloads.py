"""The benchmark's four experiment workloads.

Each workload is one pinned `ggp run` config. The benchmark adds `seed`,
`reps` and `workers` and hands the program only the generated config file.
`busy` names the wrapped functions that the seed commit calls on the
workload; a traced run in which one of them records no call reports the
function's layer as missing instead of as idle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    reps: int
    busy: tuple

    def generated_config(self, seed: int, workers: int) -> dict:
        return dict(self.config, seed=seed, reps=self.reps, workers=workers)

    def parameter_groups(self) -> list:
        """(lambda, alpha, beta) of every parameter set the runner replicates."""
        c = self.config
        if c["experiment"] == "gumbel":
            return [(float(c["n"]), float(c["alpha"]), float(c["beta"]))]
        if c["experiment"] == "slln":
            return [(float(c["a"] ** k), float(c["alpha"]), float(c["beta"]))
                    for k in range(1, c["k_max"] + 1)]
        if c["experiment"] == "scaling_limit":
            return [(float(lam), float(a), float(b))
                    for a, b in c["alphas_betas"] for lam in c["lambda_grid"]]
        raise ValueError(f"no parameter groups for {c['experiment']!r}")

    @property
    def dim(self) -> int:
        return int(self.config.get("d", 1))


_SLLN = {"experiment": "slln", "alpha": 0, "beta": 2, "a": 10, "p": 0.6}
_POLYTOPE_BUSY = (
    "params.validate_params",
    "sampling.sample_polytope_input",
    "hull.convex_hull",
    "experiments.run_slln_trend",
)

# Reps are sized so one run takes 1-5 s at two workers on a 2-core machine:
# timings there vary by ~10% run to run, so a run takes the median of
# several repetitions rather than timing one long one.
WORKLOADS = {
    w.name: w
    for w in (
        # All work is sample_standardized_max (n/2 gamma draws per rep) over
        # many tiny pool tasks: the O(1) sampler and dispatch cost; no hull.
        Workload(
            "gumbel_maxima",
            {"experiment": "gumbel", "alpha": 0, "beta": 2, "n": 100000},
            reps=400,
            busy=("sampling.sample_standardized_max", "stats.ks_statistic",
                  "experiments.run_gumbel"),
        ),
        # lambda 10..1e6 in d=2: huge clouds with ~17 vertices, so sampling
        # plus Qhull; where outer-shell sampling wins and memory moves.
        Workload(
            "hull_d2_slln",
            dict(_SLLN, d=2, k_max=6, i=2),
            reps=6,
            busy=_POLYTOPE_BUSY,
        ),
        # lambda 10..1e4 in d=4: small clouds with ~1,000 facets, so facet
        # grouping and the O(F^2) f-vector loop; shell sampling is predicted
        # slower here, and ~3% of reps skip at lambda 10.
        Workload(
            "hull_d4_slln",
            dict(_SLLN, d=4, k_max=4, i=4),
            reps=16,
            busy=_POLYTOPE_BUSY,
        ),
        # The only workload through rescale and festoon; the pure-Python
        # lower hull inside windowed_festoon dominates. Its replications
        # differ most in cost (lambda 1e3..1e5), so 8 reps (48 pool tasks)
        # keep both the seed-to-seed cost and the two workers' load even.
        Workload(
            "festoon_scaling",
            {"experiment": "scaling_limit", "d": 2, "alphas_betas": [[0, 2], [1, 1]],
             "lambda_grid": [1e3, 1e4, 1e5], "L": 1},
            reps=8,
            busy=(
                "params.validate_params",
                "params.critical_radius",
                "sampling.sample_polytope_input",
                "hull.convex_hull",
                "hull.radial_function_batch",
                "rescale.transform_batch",
                "festoon.windowed_festoon",
                "festoon.ball_grid",
                "festoon.phi_boundary_batch",
                "festoon.rescaled_hull_boundary",
                "stats.bootstrap_median_ci",
                "experiments.run_scaling_limit",
            ),
        ),
    )
}
