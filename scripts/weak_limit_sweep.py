#!/usr/bin/env python3
"""Convergence study of the two weak-measurement limits.

Halves the coupling g (at fixed device) and then the device momentum spread
delta_P (at fixed g), printing exact postselected means, first-order
predictions, and residuals at each step.
"""

import argparse

from erlweak import (
    Quadrature,
    first_order_shifts,
    postselected_means_gaussian,
    weak_value_gaussian,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu-q", type=float, default=0.3)
    parser.add_argument("--mu-p", type=float, default=-0.2)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--theta-A", type=float, default=0.3)
    parser.add_argument("--theta-B", type=float, default=0.7)
    parser.add_argument("--b", type=float, default=0.0)
    parser.add_argument("--steps", type=int, default=6)
    args = parser.parse_args()

    theta_A, theta_B = Quadrature(args.theta_A), Quadrature(args.theta_B)
    wv = weak_value_gaussian(args.mu_q, args.mu_p, args.sigma, theta_A, theta_B, args.b)
    print(f"weak value: re={wv.re:.6g} im={wv.im:.6g}")

    print("\n# g halving (delta_Q = 1, omega = 0)")
    print("g,exact_Q,fo_Q,residual_Q,exact_P,fo_P,residual_P")
    g = 0.4
    for _ in range(args.steps):
        exact = postselected_means_gaussian(
            args.mu_q, args.mu_p, args.sigma, 1.0, 0.0, g, theta_A, theta_B, args.b
        )
        fo = first_order_shifts(wv, g, 0.5, 0.0)
        print(
            f"{g:.6g},{exact[0]:.9g},{fo[0]:.9g},{exact[0] - fo[0]:.3e},"
            f"{exact[1]:.9g},{fo[1]:.9g},{exact[1] - fo[1]:.3e}"
        )
        g /= 2.0

    print("\n# delta_P halving (g = 0.05, omega = 0)")
    print("delta_P,exact_Q,g*Re,deviation_Q,exact_P")
    delta_P, g = 0.4, 0.05
    for _ in range(args.steps):
        delta_Q = 1.0 / (2.0 * delta_P)
        exact = postselected_means_gaussian(
            args.mu_q, args.mu_p, args.sigma, delta_Q, 0.0, g, theta_A, theta_B, args.b
        )
        print(
            f"{delta_P:.6g},{exact[0]:.9g},{g * wv.re:.9g},"
            f"{exact[0] - g * wv.re:.3e},{exact[1]:.3e}"
        )
        delta_P /= 2.0


if __name__ == "__main__":
    main()
