"""Seedable synthetic regression data with optional outlier injection.

A generated problem is a pure function of its GenSpec: the design matrix is
standard normal, the true coefficients are uniform in [1, 10] on the first
``n_informative`` axes and zero elsewhere (unless supplied), and the response
is the linear signal plus normal noise, with a fixed fraction of rows getting
their noise inflated to act as outliers.

Draw order from the single PCG32 stream, fixed for reproducibility:
x entries row-major, then the informative coefficients, then the m noise
values (drawn even when sigma is zero so the stream position is
deterministic), then the outlier row indices by rejection until distinct.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .model import Coefficients, Dataset
from .rng import Pcg32


@dataclass(frozen=True)
class GenSpec:
    m: int
    d: int
    n_informative: int | None = None  # default: all d axes
    true_coefficients: tuple[float, ...] | None = None
    noise_sigma: float = 1.0
    outlier_fraction: float = 0.0
    outlier_scale: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise InvalidInputError("need m >= 1 and d >= 1")
        n_inf = self.d if self.n_informative is None else self.n_informative
        if not 1 <= n_inf <= self.d:
            raise InvalidInputError(f"n_informative must be in [1, {self.d}], got {n_inf}")
        if self.true_coefficients is not None:
            coeffs = tuple(float(c) for c in self.true_coefficients)
            if len(coeffs) != self.d:
                raise InvalidInputError("true_coefficients must have length d")
            object.__setattr__(self, "true_coefficients", coeffs)
        if self.noise_sigma < 0:
            raise InvalidInputError("noise_sigma must be >= 0")
        if not 0 <= self.outlier_fraction < 1:
            raise InvalidInputError("outlier_fraction must be in [0, 1)")
        if self.outlier_scale < 1:
            raise InvalidInputError("outlier_scale must be >= 1")
        object.__setattr__(self, "n_informative", n_inf)

    @property
    def n_outliers(self) -> int:
        return math.floor(self.outlier_fraction * self.m)


def generate(g: GenSpec) -> tuple[Dataset, Coefficients]:
    """Produce (dataset, true coefficients); identical output for equal specs."""
    rng = Pcg32(g.seed)
    x = np.array(rng.normals(g.m * g.d)).reshape(g.m, g.d)
    if g.true_coefficients is not None:
        beta = np.array(g.true_coefficients)
    else:
        beta = np.zeros(g.d)
        for j in range(g.n_informative):
            beta[j] = rng.uniform_in(1.0, 10.0)
    noise = np.array(rng.normals(g.m)) * g.noise_sigma
    chosen: set[int] = set()
    while len(chosen) < g.n_outliers:
        chosen.add(rng.below(g.m))
    for i in chosen:
        noise[i] *= g.outlier_scale
    y = x @ beta + noise
    return Dataset(x, y), Coefficients(beta)


def write_dataset_csv(data: Dataset, path) -> None:
    """Header ``x1,...,xd,y``; one point per row; values round-trip exactly."""
    header = ",".join([f"x{j + 1}" for j in range(data.d)] + ["y"])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i in range(data.m):
            fh.write(",".join(repr(float(v)) for v in data.x[i]) + f",{float(data.y[i])!r}\n")


def read_dataset_csv(path) -> Dataset:
    """Parse a dataset CSV, pointing at the offending row/column on failure."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise InvalidInputError(f"{path}: empty file")
    names = lines[0].split(",")
    if len(names) < 2 or names[-1] != "y" or names[:-1] != [f"x{j + 1}" for j in range(len(names) - 1)]:
        raise InvalidInputError(f"{path}: header row 1 must be x1,...,xd,y, got {lines[0]!r}")
    body = lines[1:]
    # one numpy call (none on a body without data, where numpy warns); the loop
    # below diagnoses, and reads what only float reads (such as "1_0")
    try:
        arr = np.loadtxt(body, delimiter=",", ndmin=2, comments=None) if any(body) else None
    except ValueError:
        arr = None
    if arr is not None and arr.shape[1] == len(names):
        return Dataset(arr[:, :-1], arr[:, -1])
    rows = []
    for i, line in enumerate(body, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise InvalidInputError(
                f"{path}: row {i} has {len(cells)} fields, header has {len(names)}"
            )
        parsed = []
        for name, cell in zip(names, cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise InvalidInputError(
                    f"{path}: row {i}, column {name}: cannot parse {cell!r} as a number"
                ) from None
        rows.append(parsed)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    arr = np.array(rows)
    return Dataset(arr[:, :-1], arr[:, -1])


def metadata_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def write_metadata(csv_path, g: GenSpec, true_beta: Coefficients) -> None:
    """Sidecar JSON recording the generating spec and the true coefficients."""
    payload = asdict(g)
    payload["true_beta"] = [float(v) for v in true_beta.beta]
    with open(metadata_path(csv_path), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metadata(csv_path) -> dict:
    with open(metadata_path(csv_path), "r", encoding="ascii") as fh:
        return json.load(fh)
