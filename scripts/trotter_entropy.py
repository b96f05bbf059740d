#!/usr/bin/env python3
"""Temporal entanglement of the influence matrix versus Trotter step.

Fixed physical time t, decreasing step eps.  In the Hamiltonian limit the
half-cut entropy drops faster than linearly in eps, which is what makes the
small-step regime cheap despite the growing trajectory length.
"""
import argparse

from temporal_im import entropy_series, trotterize


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--J", type=float, default=1.0)
    ap.add_argument("--g", type=float, default=2**0.5)
    ap.add_argument("--h", type=float, default=0.681)
    ap.add_argument("--t", type=float, default=2.0)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.08, 0.04, 0.02])
    ap.add_argument("--chi", type=int, nargs="+", default=[32, 64])
    args = ap.parse_args()

    specs = [trotterize(args.J, args.g, args.h, args.t, e) for e in args.eps]
    ser = entropy_series(specs, args.chi, cutoff=0.0)
    prev = None
    for e, s, conv in zip(ser.abscissa, ser.values.real,
                          ser.extras["chi_converged"]):
        note = "" if prev is None else f"  S(2eps)/S(eps)={prev / s:.3f}"
        print(f"eps={e:<6g} T={int(round(args.t / e)):4d}  S_half={s:.6f}  "
              f"chi_converged={conv}{note}")
        prev = s


if __name__ == "__main__":
    main()
