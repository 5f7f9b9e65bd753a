#!/usr/bin/env python3
"""Reproduce the postselection-bias picture: weakly measure position
(theta_A = 0), then look at the joint distribution of the particle momentum
after the coupling and the device momentum. Slicing near p = b shows a
device-momentum distribution with nonzero mean even though no individual
device momentum changed.

Writes the per-slice table (slice centre, count, sampled and exact
conditional mean of P) to the CSV file named by --out.
"""

import argparse
import math

from erlweak import ExperimentConfig, Quadrature, joint_momentum_histogram


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=float, default=0.5)
    parser.add_argument("--delta-P", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--bins", type=int, default=41)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--out", default="fig2_slices.csv")
    args = parser.parse_args()

    config = ExperimentConfig(
        mu_q=0.0,
        mu_p=0.0,
        sigma=1.0,
        delta_Q=1.0 / (2.0 * args.delta_P),
        mu_P=0.0,
        omega=0.0,
        g=args.g,
        theta_A=Quadrature(0.0),
        theta_B=Quadrature(math.pi / 2),
        b=1.0,
        epsilon=None,
        n_samples=args.n,
        seed=args.seed,
    )
    counts, p_edges, P_edges = joint_momentum_histogram(config, bins=args.bins)
    centers_p = 0.5 * (p_edges[:-1] + p_edges[1:])
    centers_P = 0.5 * (P_edges[:-1] + P_edges[1:])

    cov = config.evolved_joint().cov
    slope = cov[3, 1] / cov[1, 1]
    with open(args.out, "w", newline="\n") as fh:
        fh.write("p_center,count,mean_P_given_p,exact_mean_P_given_p\n")
        for i, p in enumerate(centers_p):
            total = counts[i].sum()
            if total == 0:
                continue
            mean_P = counts[i] @ centers_P / total
            fh.write(f"{p:.17g},{int(total)},{mean_P:.17g},{slope * p:.17g}\n")
    print(f"wrote {args.out}; exact conditional slope dE[P|p]/dp = {slope:.6g}")


if __name__ == "__main__":
    main()
