"""Search for subspaces whose marginals all reach the improved depth bound.

For n <= 2 the inner problem (best common depth level of several
marginals in the plane, or on the line, read as its x axis) is solved
exactly by the level search of ``depth``: depth levels form a finite
set of rationals, and the largest level at which one clip against the
halfplanes of all the marginals stays nonempty is found by binary search
with exact emptiness certificates.  The outer problem (which subspace) is
random-restart hill climbing with plane-rotation moves; a move is
accepted only when the exact objective strictly increases.

For n <= 2 the objective equals the common level L: the witness, the
centroid of the convex common region at L, has depth at least L in all
the marginals, and a least depth above L would put it in every region at
a higher level.  So the restarts compare levels alone, and only
``verify`` builds the witness, checking that its least depth is the
level.  Regions nest as the level rises, so a move beats the best level
exactly when its regions meet at the next level above it: each move's
level search takes the best level as its floor and probes that level
first, which settles most rejected moves with one region.  The
marginals are read as the integer images of the atoms under the frame
(``depth._images``): the moves' tables, and ``verify``'s tables, depths
and n >= 3 ascent, so neither builds a cloud.

Restarts run one after another.  Each draws its randomness from its own
child of the master seed, made when the restart starts; the search stops
at the first restart that reaches the target, and otherwise reports the
best objective with the lowest index, so identical seeds and inputs give
identical reports.
Frames are built and moved in plain Python, each sum rounded once by
``cloud.dot``, so the reports do not depend on the BLAS kernel either:
numpy only draws the seeded normals.  For n >= 3 only, the witness
comes from the seeded ascent of ``depth`` and the report is flagged
approximate (``"exact": false``).
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from . import polygon
from .bounds import min_dimension, thresholds
from .centers import _c_point
from .cloud import OrthoFrame, _as_fraction, dot
from .depth import (
    _ascent, _deepest_common_region, _DirectionTable, _images, _mean, tukey_depth,
)
from .errors import DomainError, InternalConsistencyError
from .serialize import frac_str


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 60
    local_steps: int = 40
    initial_angle: float = 0.6
    decay: float = 0.7
    master_seed: int = 0
    target: Fraction = None

    def __post_init__(self):
        if self.restarts < 1 or self.local_steps < 0:
            raise DomainError("restarts must be >= 1 and local_steps >= 0")
        if not 0 < self.decay < 1:
            raise DomainError("decay must lie in (0, 1)")
        if not 0 < self.initial_angle <= math.pi:
            raise DomainError("initial angle must lie in (0, pi]")
        if self.master_seed < 0:
            raise DomainError("seed must be >= 0, got %d" % self.master_seed)

    def to_dict(self):
        return {
            "restarts": self.restarts,
            "local_steps": self.local_steps,
            "initial_angle": self.initial_angle,
            "decay": self.decay,
            "master_seed": self.master_seed,
            "target": None if self.target is None else frac_str(self.target),
        }


@dataclass(frozen=True)
class TransversalReport:
    frame: OrthoFrame
    n: int
    objective: Fraction
    per_measure_depths: tuple
    witness_point: tuple
    c_points: tuple
    c_spread: float
    success: bool
    target: Fraction
    failing_measures: tuple
    exact: bool = True
    restart_index: int = None
    config: SearchConfig = None
    # (index, objective as float, success) of every restart run
    trajectory: tuple = ()

    def to_dict(self):
        return {
            "n": self.n,
            "frame_rows": [[float(x) for x in r] for r in self.frame.rows],
            "projector": [[float(x) for x in row] for row in self.frame.projector()],
            "objective": frac_str(self.objective),
            "per_measure_depths": [frac_str(v) for v in self.per_measure_depths],
            "witness_point": [frac_str(x) for x in self.witness_point],
            "c_points": [[frac_str(x) for x in c] for c in self.c_points],
            "c_spread": self.c_spread,
            "success": self.success,
            "target": frac_str(self.target),
            "failing_measures": list(self.failing_measures),
            "exact": self.exact,
            "restart_index": self.restart_index,
            "config": None if self.config is None else self.config.to_dict(),
            "trajectory": [list(row) for row in self.trajectory],
        }


def random_frame(ambient, n, seed):
    """Orthonormalized Gaussian frame; seed is a seed or a numpy Generator."""
    import numpy as np

    if not 1 <= n <= ambient:
        raise DomainError("need 1 <= n <= ambient")
    if isinstance(seed, int) and seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)
    rng = np.random.default_rng(seed)
    return OrthoFrame(_orthonormalize(rng.standard_normal((n, ambient))))


def _orthonormalize(g):
    """Rows of Q^T for g^T = QR, R's diagonal positive: Gram-Schmidt with each
    projection taken out twice (once loses orthogonality on ill-conditioned g)."""
    q = ()
    for v in g:
        v = _without(_without([float(x) for x in v], q), q)
        norm = math.sqrt(dot(v, v))
        q += (tuple(x / norm for x in v),)
    return q


def _without(v, rows):
    """v less its projection onto the span of the orthonormal rows."""
    coeffs = [dot(r, v) for r in rows]
    return [x - dot(coeffs, [r[k] for r in rows]) for k, x in enumerate(v)]


def _common_level(tables, images):
    """Largest exact level whose superlevel regions, read off the marginals'
    direction tables, all intersect.

    images are the marginals' integer images.  Returns (level, witness)
    where the witness is the centroid of the intersection, cut to the
    marginals' dimension; (0, mean of the first images) when even the
    lowest level fails, as it does for marginals with disjoint hulls.
    """
    level, loop = _deepest_common_region(tables)
    if not loop:
        return Fraction(0), _mean(images[0])
    return level, polygon.centroid(loop)[:images[0].dim]


def _objective_parts(frame, clouds, n):
    """(objective, witness, depths, the marginals' direction tables if n <= 2),
    all read off one projection of each cloud to its integer images."""
    images = [_images(c, frame) for c in clouds]
    tables = [_DirectionTable(m) for m in images] if n <= 2 else None
    if n <= 2:
        level, witness = _common_level(tables, images)
    else:
        start = [sum(c) / len(images) for c in zip(*map(_mean, images))]
        witness, _ = _ascent(images, start)
    per = tuple(tukey_depth(m, witness).value for m in images)
    if n <= 2 and min(per) != level:
        raise InternalConsistencyError(
            "least depth %s at the witness is not the common level %s" % (min(per), level)
        )
    return min(per), witness, per, tables


def objective(frame, clouds, n):
    """(exact least depth at the witness, witness point) for the frame.

    The value is the minimum over measures of the exact depth at the
    witness.  For n <= 2 the witness is the centroid of the deepest common
    region, and the value equals the common level.
    """
    _check_clouds(frame, clouds)
    return _objective_parts(frame, clouds, n)[:2]


def _check_clouds(frame, clouds):
    if not clouds:
        raise DomainError("need at least one cloud")
    if len({c.dim for c in clouds}) != 1:
        raise DomainError("clouds must share one ambient dimension")
    if frame is not None and frame.ambient != clouds[0].dim:
        raise DomainError("frame ambient does not match the clouds")


def _target(target, n):
    """The depth target, the improved bound by default; it lies in (0, 1]."""
    target = thresholds(n)[1] if target is None else _as_fraction(target)
    if not 0 < target <= 1:
        raise DomainError("target must lie in (0, 1], got %s" % (target,))
    return target


def verify(frame, clouds, n, target=None):
    """Exact re-evaluation of a frame: depths, c-points, consensus spread.

    The report carries no search record: restart_index and config are
    None and the trajectory is empty.  The target defaults to the
    improved bound.  The marginals are read as integer images, with no
    cloud.  For n <= 2 the c-points reuse the direction tables of the
    level search, and its level bounds every marginal's depth from below:
    when the level reaches the improved bound, each c-point is the
    centroid of one region probe at the bound, with no level search.
    """
    _check_clouds(frame, clouds)
    if frame.n != n:
        raise DomainError("frame has %d rows, expected n = %d" % (frame.n, n))
    target = _target(target, n)
    value, witness, per, tables = _objective_parts(frame, clouds, n)
    c_points = tuple(_c_point(t, n, value) for t in tables) if n <= 2 else ()
    spread = max((math.sqrt(sum(float(a - b) ** 2 for a, b in zip(p, q)))
                  for p, q in combinations(c_points, 2)), default=0.0)
    failing = tuple(i for i, v in enumerate(per) if v < target)
    return TransversalReport(
        frame=frame,
        n=n,
        objective=value,
        per_measure_depths=per,
        witness_point=tuple(witness),
        c_points=c_points,
        c_spread=spread,
        success=not failing,
        target=target,
        failing_measures=failing,
        exact=n <= 2,
    )


_RestartResult = namedtuple("_RestartResult", "index objective frame success")


def _run_restart(index, seed, clouds, n, target, config):
    import numpy as np

    def value(frame, floor=None):
        # for n <= 2 the objective is the common level: no witness needed.
        # A move must beat the best level, so its level search takes that as
        # its floor: one probe just above it rejects most moves, a move that
        # passes gets its exact level, and a rejected one reads 0
        if n <= 2:
            tables = [_DirectionTable(_images(c, frame)) for c in clouds]
            return _deepest_common_region(tables, floor)[0]
        return _objective_parts(frame, clouds, n)[0]

    rng = np.random.default_rng(seed)
    frame = random_frame(clouds[0].dim, n, rng)
    best_val = value(frame)
    angle = config.initial_angle
    step = 0
    while step < config.local_steps and best_val < target:
        step += 1
        rows = frame.rows
        row = int(rng.integers(n))
        d = _without(rng.standard_normal(frame.ambient).tolist(), rows)
        nrm = math.sqrt(dot(d, d))
        if nrm < 1e-9:
            continue
        cos, sin = math.cos(angle), math.sin(angle)
        turned = [cos * a + sin * (b / nrm) for a, b in zip(rows[row], d)]
        nrm = math.sqrt(dot(turned, turned))
        cand = OrthoFrame(rows[:row] + (tuple(x / nrm for x in turned),) + rows[row + 1:])
        val = value(cand, best_val)
        if val > best_val:
            frame, best_val = cand, val
            angle = config.initial_angle
        else:
            angle *= config.decay
    return _RestartResult(index, best_val, frame, best_val >= target)


def search(clouds, n, config=None):
    """Random-restart hill climbing over frames; exact acceptance tests.

    Restarts run in index order until one reaches the target; that one is
    reported, or else the best objective with the lowest index.  Restart i
    draws from the i-th child of the master seed, made when it starts.
    The report is verify's for that restart's frame, with the restart
    index, the config and the trajectory of every restart run added.
    """
    _check_clouds(None, clouds)
    if config is None:
        config = SearchConfig()
    n = int(n)
    target = _target(config.target, n)
    ambient = clouds[0].dim
    if not 1 <= n <= ambient:
        raise DomainError("need 1 <= n <= ambient dimension %d, got n = %d" % (ambient, n))
    needed = min_dimension(len(clouds), n) if n >= 2 else None
    if needed is not None and ambient < needed:
        warnings.warn(
            "ambient dimension %d is below the guaranteed bound %d for m=%d, n=%d"
            % (ambient, needed, len(clouds), n),
            stacklevel=2,
        )
    import numpy as np

    best = None
    trajectory = []
    for index in range(config.restarts):
        # the same draws as SeedSequence(master_seed).spawn(restarts)[index]
        seed = np.random.SeedSequence(config.master_seed, spawn_key=(index,))
        res = _run_restart(index, seed, clouds, n, target, config)
        trajectory.append((index, float(res.objective), res.success))
        # a restart that reaches the target beats every earlier one
        if best is None or res.objective > best.objective:
            best = res
        if res.success:
            break
    report = verify(best.frame, clouds, n, target=target)
    return replace(report, restart_index=best.index, config=config,
                   trajectory=tuple(trajectory))
