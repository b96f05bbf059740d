#!/usr/bin/env python3
"""Entropy of the disorder-averaged influence matrix near the pi-pulse.

At a perfect pulse the averaged IM is a staggered delta whose half-cut
entropy is the Dicke value for 2T constituents; detuning the pulse by
eps_kick turns the growth logarithmic.  Prints both, plus a log fit.
"""
import argparse
import math

import numpy as np

from temporal_im import ModelSpec, dicke_entropy, entropy_series


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps-kick", type=float, default=0.1)
    ap.add_argument("--h", type=float, default=0.3)
    ap.add_argument("--T", type=int, nargs="+", default=[8, 12, 16, 24, 32])
    ap.add_argument("--chi", type=int, nargs="+", default=[32, 64])
    args = ap.parse_args()

    g = math.pi / 2 - args.eps_kick
    specs = [ModelSpec(J=1.0, g=g, h=args.h, T=T, disorder="uniform_J_0_2pi")
             for T in args.T]
    ser = entropy_series(specs, args.chi, cutoff=1e-12)
    for T, s in zip(args.T, ser.values.real):
        print(f"T={T:3d}  S_half={s:.6f}  S_dicke(2T,T)={dicke_entropy(2 * T, T):.6f}")

    logt = np.log(np.asarray(args.T, dtype=float))
    b, a = np.polyfit(logt, ser.values.real, 1)
    print(f"\nfit S = a + b log T: a={a:.4f} b={b:.4f}")


if __name__ == "__main__":
    main()
