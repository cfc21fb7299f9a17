"""The benchmark's workloads: fixed instance lists whose inputs come from a seed.

Seed 0 gives the frozen expressions of the acceptance tests. Any other seed
shifts each target density by a seeded offset and keeps the sizes,
tolerances and schedules, so every seed asks for the same amount of work.
The two pairs that sit on the fft precision floor are the exception and
keep their seed-0 input (see torus_sweep and torus_large). The package only
ever sees the generated expression strings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Largest seeded target offset on the torus, in periods. Within +-0.03 no
# torus-sweep instance changed its stop reason and no step count moved by
# more than ten; at 0.05 PEAKED k=128 needed three times its steps.
TORUS_OFFSET = 0.02
# Largest seeded tilt of the antenna target, in radians.
ANTENNA_TILT = 0.2


@dataclass(frozen=True)
class TorusCase:
    """Sinkhorn transport on the n-torus lattice, Gaussian kernel, fft route.

    axes holds one (f, g) pair of 1-D expressions per axis when the 2-D
    measures are products, so the reference can solve each axis alone.
    """

    label: str
    n: int
    k: int
    f: str
    g: str
    tol: float
    A: float
    axes: tuple = ()


@dataclass(frozen=True)
class SphereCase:
    """Sinkhorn transport on the sphere grid of bandwidth W, SHT route."""

    label: str
    kernel: str
    k: int
    W: int
    f: str
    g: str
    tol: float = 1e-9
    A: float = 2.0


@dataclass(frozen=True)
class ParabolicCase:
    """Parabolic Monge-Ampere flow to horizon T; dt None is the package default."""

    label: str
    n: int
    N: int
    T: float
    dt: float | None
    f: str
    g: str
    records: int = 5


def shifted(var, s):
    """Expression text for var - s, parenthesized unless s is zero."""
    if s == 0:
        return var
    return f"({var}{'-' if s > 0 else '+'}{abs(s)!r})"


def well(a, var, s):
    """The cosine well a(1 - cos 2 pi (var - s)) as expression text."""
    return f"{a!r}*(1-cos(2*pi*{shifted(var, s)}))"


class _Offsets:
    """Seeded offsets; all zero for seed 0."""

    def __init__(self, seed):
        self._zero = seed == 0
        self._rng = random.Random(seed)

    def __call__(self, half_width):
        if self._zero:
            return 0.0
        return round(self._rng.uniform(-half_width, half_width), 6)


def torus_sweep(seed):
    """SMOOTH, PEAKED and MILD pairs of the acceptance tests at k = 16..256.

    The SMOOTH pair keeps its seed-0 input for every seed. Its k=128 solve
    ends on the fft precision floor: over its last 2,000 steps e_col has
    median 5.7e-12 and minimum 2.0e-12, against tol 1e-12. A target offset
    of 0.0048 made it reach tol after 4,933 steps instead of stopping at
    m_max after 7,453.
    """
    offset = _Offsets(seed)
    cases = []
    for name, a, s, seeded in (("smooth", 3, 0.375, False), ("peaked", 6, 0.25, True),
                               ("mild", 0.3, 0.25, True)):
        g_shift = round(s + offset(TORUS_OFFSET), 6) if seeded else s
        for k in (16, 32, 64, 128, 256):
            cases.append(
                TorusCase(f"{name}-k{k}", 1, k, well(a, "x1", 0), well(a, "x1", g_shift),
                          tol=1e-12, A=12.0)
            )
    return cases


def torus_large(seed):
    """1-D SMOOTH at k=384 and the 2-D product pair at k = 128, 192.

    The 1-D instance keeps its seed-0 input for every seed. It sits on the
    fft precision floor, where the step count is chaotic in the input: target
    offsets below one lattice cell gave anywhere from 134 to over 600 steps,
    and a whole-instance translation by half a period gave 247. Seeding it
    would measure that chaos rather than the code.
    """
    offset = _Offsets(seed)
    cases = [
        TorusCase("smooth-k384", 1, 384, well(3, "x1", 0), well(3, "x1", 0.375),
                  tol=1e-9, A=2.0)
    ]
    s1 = round(0.375 + offset(TORUS_OFFSET), 6)
    s2 = round(0.25 + offset(TORUS_OFFSET), 6)
    axes = ((well(3, "x1", 0), well(3, "x1", s1)), (well(1, "x1", 0), well(1, "x1", s2)))
    f = f"{well(3, 'x1', 0)} + {well(1, 'x2', 0)}"
    g = f"{well(3, 'x1', s1)} + {well(1, 'x2', s2)}"
    for k in (128, 192):
        cases.append(TorusCase(f"product-k{k}", 2, k, f, g, tol=1e-9, A=2.0, axes=axes))
    return cases


def sphere(seed):
    """Heat-kernel transport at the CLI defaults plus one antenna solve."""
    offset = _Offsets(seed)
    phase = offset(math.pi)
    tilt = offset(ANTENNA_TILT)
    cases = [
        SphereCase(f"heat-k{k}", "heat", k, 2 * k, "2*cos(theta)",
                   f"2*sin(theta)*cos({shifted('phi', phase)})")
        for k in (8, 16, 24, 32)
    ]
    if tilt == 0:
        g = "-0.8*cos(theta)"
    else:
        g = (f"-0.8*(cos(theta)*{math.cos(tilt)!r}"
             f"+sin(theta)*cos(phi)*{math.sin(tilt)!r})")
    cases.append(SphereCase("antenna-k16", "antenna", 16, 31, "0", g))
    return cases


def parabolic(seed):
    """1-D MILD at N=256 (default dt) and a 2-D pair at N=64 with dt = 0.1 dx^2.

    The 2-D run passes dt explicitly: the package default 0.2 dx^2 loses
    det(I + H) positivity in 2-D before T = 0.1.
    """
    offset = _Offsets(seed)
    s = round(0.25 + offset(TORUS_OFFSET), 6)
    s1 = round(0.25 + offset(TORUS_OFFSET), 6)
    s2 = round(0.5 + offset(TORUS_OFFSET), 6)
    return [
        ParabolicCase("mild-n256", 1, 256, 0.05, None, well(0.3, "x1", 0),
                      well(0.3, "x1", s)),
        ParabolicCase(
            "pair-n64", 2, 64, 0.04, 0.1 / 64**2,
            f"{well(0.3, 'x1', 0)} + {well(0.2, 'x2', 0)}",
            f"{well(0.3, 'x1', s1)} + {well(0.2, 'x2', s2)}",
        ),
    ]


WORKLOADS = {
    "torus-sweep": torus_sweep,
    "torus-large": torus_large,
    "sphere": sphere,
    "parabolic": parabolic,
}
