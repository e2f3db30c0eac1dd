"""Fixed reference job: its wall time measures how fast the machine runs now.

run.py starts it in a fresh interpreter after every round of CLI jobs.  Like
a CLI job it pays interpreter start, a numpy import and pure-Python work on
tuples, dicts and Fractions, so a shared host that runs slower or faster for
a while slows or speeds it about as much as the jobs next to it.  run.py
divides the jobs' times by its median time.

It never imports superbrauer, so no change to the program moves it.  Any
change to this file moves every reported time: make none.
"""

from fractions import Fraction

import numpy as np


def main() -> None:
    perm = tuple((i * 7 + 3) % 97 for i in range(97))
    p, seen = perm, {}
    for _ in range(4000):
        p = tuple(p[i] for i in perm)
        seen[p] = seen.get(p, 0) + 1
    acc = Fraction(0)
    for i in range(1, 30000):
        acc += Fraction((i * 31) % 17 - 8, i % 13 + 1)
        if i % 64 == 0:
            acc = Fraction(acc.numerator % 1000003, 7)
    a = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 13
    for _ in range(300):
        a = (a @ a.T) % 13


if __name__ == "__main__":
    main()
