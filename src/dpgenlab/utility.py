"""Expected utility of the generator and its temperature trade-off.

Treat the message distribution as a Gibbs family pi_T(m) proportional to
exp(U(m)/T), where U(m) is the cumulative logit score. For any per-message
utility nu the expected utility E(T) then has the closed-form derivative

    dE/dT = -Cov_T(nu, U) / T^2

so nondecreasing nu makes E(T) nonincreasing. The regularized design
objective E(T) + (lambda/L) * T is maximised by scanning the first-order
condition lambda/L = Cov_T(nu, U)/T^2 for sign changes, refining each root by
bisection, and picking the best of the interior roots and the bracket
endpoints. Interior stationary points may be minima, so the global selection
step is not optional.

The solver, the objective, the derivative and the objective curve all read
E_T[nu] and Cov_T(nu, U) from one moments function built per (model,
dataset, length, utility). Without history coupling the Gibbs law is the
product of per-step softmaxes of the logit rows l_k, so for every utility
kind except ``table`` the moments are per-step closed forms at O(L*V) cost
per temperature, e.g. log E[e^U] = sum_k [LSE((1 + 1/T) l_k) - LSE(l_k / T)].
Otherwise one score table is enumerated and reused for every temperature.
Both paths enforce the same enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.special import logsumexp

from .errors import ArgumentError, ConfigError, SolverError
from .generation import (
    DEFAULT_ENUM_CAP,
    Dataset,
    GenerationConfig,
    LogitModel,
    check_enumerable,
    enumerate_cumulative_scores,
    enumerate_message_distribution,
    path_logits,
    _log_normaliser,
)

UTILITY_KINDS = ("exp_logit_plus_length", "affine_in_U", "constant", "table")

FOC_TOLERANCE = 1e-10
BRACKET_WIDTH_TOLERANCE = 1e-9
GRID_POINTS = 256


@dataclass(frozen=True)
class UtilitySpec:
    """Per-message utility nu(m, L).

    Kinds:
      exp_logit_plus_length  nu = exp(U(m)) + length_coefficient * L
      affine_in_U            nu = slope * U(m) + intercept
      constant               nu = value
      table                  nu = table_values[lexicographic index of m]
    """

    kind: str
    length_coefficient: float = 0.1
    slope: float = 1.0
    intercept: float = 0.0
    value: float = 0.0
    table_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in UTILITY_KINDS:
            raise ConfigError(f"unknown utility kind {self.kind!r}; choose from {UTILITY_KINDS}")
        if self.kind == "table":
            if self.table_values is None:
                raise ConfigError("table utility requires table_values")
            values = tuple(float(v) for v in self.table_values)
            if not all(np.isfinite(v) for v in values):
                raise ConfigError("table utility contains a non-finite value")
            object.__setattr__(self, "table_values", values)
        for name in ("length_coefficient", "slope", "intercept", "value"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"utility parameter {name} must be finite")

    @classmethod
    def exp_logit_plus_length(cls, length_coefficient: float = 0.1) -> "UtilitySpec":
        return cls(kind="exp_logit_plus_length", length_coefficient=length_coefficient)

    @classmethod
    def affine(cls, slope: float, intercept: float = 0.0) -> "UtilitySpec":
        return cls(kind="affine_in_U", slope=slope, intercept=intercept)

    @classmethod
    def constant_value(cls, value: float) -> "UtilitySpec":
        return cls(kind="constant", value=value)

    @classmethod
    def table(cls, values: Iterable[float]) -> "UtilitySpec":
        return cls(kind="table", table_values=tuple(values))

    def check_table_size(self, messages: int) -> None:
        """Raise ArgumentError unless a table utility has one entry per message."""
        if self.kind == "table" and len(self.table_values) != messages:
            raise ArgumentError(
                f"table utility has {len(self.table_values)} entries but the message "
                f"space has {messages} messages"
            )

    def values_for(
        self,
        scores: np.ndarray,
        length: int,
        message_indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Utility of each message given its cumulative score U(m).

        ``message_indices`` is only needed by the table kind, whose utility is
        positional rather than a function of the score.
        """
        scores = np.asarray(scores, dtype=float)
        if self.kind == "exp_logit_plus_length":
            out = np.exp(scores) + self.length_coefficient * length
        elif self.kind == "affine_in_U":
            out = self.slope * scores + self.intercept
        elif self.kind == "constant":
            out = np.full(scores.shape, self.value)
        else:
            table = np.asarray(self.table_values, dtype=float)
            if message_indices is None:
                self.check_table_size(scores.shape[0])
                out = table.copy()
            else:
                indices = np.asarray(message_indices, dtype=int)
                if indices.min(initial=0) < 0 or indices.max(initial=0) >= table.shape[0]:
                    raise ArgumentError("message index out of range for the utility table")
                out = table[indices]
        if not np.all(np.isfinite(out)):
            raise SolverError("utility evaluated to a non-finite value")
        return out


@dataclass(frozen=True)
class GibbsDistribution:
    """Distribution proportional to exp(U(m)/T) over the full message table."""

    scores: np.ndarray
    temperature: float
    log_probs: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or scores.shape[0] < 1:
            raise ArgumentError("scores must be a non-empty 1-D table")
        if not np.all(np.isfinite(scores)):
            raise SolverError("cumulative scores contain a non-finite value")
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature!r}")
        scaled = scores / self.temperature
        log_probs = scaled - logsumexp(scaled)
        log_probs.setflags(write=False)
        object.__setattr__(self, "log_probs", log_probs)

    @property
    def size(self) -> int:
        return int(self.scores.shape[0])

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def gibbs_distribution(
    model: LogitModel,
    dataset: Dataset,
    length: int,
    temperature: float,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> GibbsDistribution:
    scores = enumerate_cumulative_scores(model, dataset, length, enum_cap)
    return GibbsDistribution(scores=scores, temperature=temperature)


def gibbs_autoregressive_gap(
    model: LogitModel, dataset: Dataset, config: GenerationConfig
) -> float:
    """Total variation between the sampled (product-form) law and the Gibbs law.

    Zero (to float precision) whenever the model has no history coupling,
    because then the per-step normalisers do not depend on the prefix.
    """
    product_form = enumerate_message_distribution(model, dataset, config)
    gibbs = gibbs_distribution(
        model, dataset, config.length, config.temperature, config.enum_cap
    )
    return float(0.5 * np.abs(product_form.probs() - gibbs.probs()).sum())


def expected_utility(dist: GibbsDistribution, utility: UtilitySpec, length: int) -> float:
    weights = dist.probs()
    values = utility.values_for(dist.scores, length)
    return float(weights @ values)


def utility_covariance(dist: GibbsDistribution, utility: UtilitySpec, length: int) -> float:
    """Cov(nu, U) under the distribution: E[nu*U] - E[nu]*E[U]."""
    weights = dist.probs()
    values = utility.values_for(dist.scores, length)
    scores = dist.scores
    return float(weights @ (values * scores) - (weights @ values) * (weights @ scores))


Moments = Callable[[float], tuple[float, float]]


def _step_softmax(logits: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-normaliser and softmax weights of each row of beta * logits."""
    scaled = beta * logits
    log_norm = _log_normaliser(scaled)
    return log_norm[:, 0], np.exp(scaled - log_norm)


def _factorised_moments(logits: np.ndarray, utility: UtilitySpec, length: int) -> Moments:
    """Closed-form moments for the product law of the (L, V) logit rows."""
    if utility.kind == "constant":
        return lambda T: (utility.value, 0.0)
    if utility.kind == "affine_in_U":

        def affine(T: float) -> tuple[float, float]:
            _, weights = _step_softmax(logits, 1.0 / T)
            means = (weights * logits).sum(axis=1)
            variances = (weights * (logits - means[:, None]) ** 2).sum(axis=1)
            e_nu = utility.slope * float(means.sum()) + utility.intercept
            return e_nu, utility.slope * float(variances.sum())

        return affine

    # exp_logit_plus_length. The enumeration path exponentiates every score,
    # the largest of which is the sum of the per-step maxima.
    if not np.isfinite(np.exp(logits.max(axis=1).sum())):
        raise SolverError("utility evaluated to a non-finite value")
    bonus = utility.length_coefficient * length

    def exp_plus_length(T: float) -> tuple[float, float]:
        # E[e^U] tilts every step from exp(l/T) to exp((1 + 1/T) l), and
        # Cov(e^U, U) = E[e^U] * (E_tilted[U] - E[U]).
        log_norm, weights = _step_softmax(logits, 1.0 / T)
        tilted_log_norm, tilted = _step_softmax(logits, 1.0 + 1.0 / T)
        mean_exp = float(np.exp((tilted_log_norm - log_norm).sum()))
        shift = float(((tilted - weights) * logits).sum())
        return mean_exp + bonus, mean_exp * shift

    return exp_plus_length


def utility_moments(
    model: LogitModel,
    dataset: Dataset,
    length: int,
    utility: UtilitySpec,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Moments:
    """The function T -> (E_T[nu], Cov_T(nu, U)) under the Gibbs law.

    Coupling-free models with a score-based utility get per-step closed
    forms; coupled models and the table utility enumerate the score table
    once and reuse it for every temperature.
    """
    check_enumerable(model.vocabulary.size, length, enum_cap)
    if model.history_coupling is None and utility.kind != "table":
        return _factorised_moments(path_logits(model, dataset, length), utility, length)
    scores = enumerate_cumulative_scores(model, dataset, length, enum_cap)
    values = utility.values_for(scores, length)

    def enumerated(T: float) -> tuple[float, float]:
        scaled = scores / T
        weights = np.exp(scaled - _log_normaliser(scaled))
        e_nu = float(weights @ values)
        cov = float(weights @ (values * scores) - e_nu * (weights @ scores))
        return e_nu, cov

    return enumerated


def utility_temperature_derivative(
    model: LogitModel,
    dataset: Dataset,
    length: int,
    utility: UtilitySpec,
    temperature: float,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """Closed-form dE/dT = -Cov(nu, U) / T^2."""
    _, cov = utility_moments(model, dataset, length, utility, enum_cap)(temperature)
    return -cov / temperature**2


@dataclass(frozen=True)
class OptimizationProblem:
    """Maximise E(T) + (lam / length) * T over the temperature bracket."""

    model: LogitModel
    dataset: Dataset
    length: int
    utility: UtilitySpec
    lam: float
    bracket: tuple[float, float] = (0.1, 2.0)
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self) -> None:
        if int(self.length) != self.length or self.length < 1:
            raise ConfigError(f"length must be an integer >= 1, got {self.length!r}")
        object.__setattr__(self, "length", int(self.length))
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam!r}")
        lo, hi = (float(self.bracket[0]), float(self.bracket[1]))
        if not (np.isfinite(lo) and np.isfinite(hi)) or not 0 < lo < hi:
            raise ConfigError(f"bracket must satisfy 0 < low < high, got {self.bracket!r}")
        object.__setattr__(self, "bracket", (lo, hi))


@dataclass(frozen=True)
class Candidate:
    temperature: float
    objective: float
    foc_residual: float
    interior: bool

    def to_jsonable(self) -> dict:
        return {
            "temperature": self.temperature,
            "objective": self.objective,
            "foc_residual": self.foc_residual,
            "interior": self.interior,
        }


@dataclass(frozen=True)
class OptimizationDiagnostics:
    candidates: tuple[Candidate, ...]
    chosen: Candidate
    grid_points: int

    def to_jsonable(self) -> dict:
        return {
            "candidates": [c.to_jsonable() for c in self.candidates],
            "chosen": self.chosen.to_jsonable(),
            "grid_points": self.grid_points,
        }


def _problem_moments(problem: OptimizationProblem) -> Moments:
    return utility_moments(
        problem.model, problem.dataset, problem.length, problem.utility, problem.enum_cap
    )


def regularized_objective(problem: OptimizationProblem, temperature: float) -> float:
    """E(T) + (lambda / L) * T."""
    e_nu, _ = _problem_moments(problem)(temperature)
    return e_nu + (problem.lam / problem.length) * temperature


def objective_curve(
    problem: OptimizationProblem, points: int
) -> list[tuple[float, float, float, float]]:
    """(T, E(T), objective, dE/dT) at ``points`` log-spaced temperatures
    spanning the bracket, from one moments function."""
    moments = _problem_moments(problem)
    lam_per_step = problem.lam / problem.length
    rows = []
    for t in np.geomspace(*problem.bracket, points):
        temperature = float(t)
        e_nu, cov = moments(temperature)
        rows.append((temperature, e_nu, e_nu + lam_per_step * temperature, -cov / temperature**2))
    return rows


def optimal_temperature(problem: OptimizationProblem) -> tuple[float, OptimizationDiagnostics]:
    """Global maximiser of the regularized objective over the bracket.

    Scans a log-spaced grid for sign changes of the first-order condition
    g(T) = lambda/L - Cov_T(nu, U)/T^2, bisects each bracketing interval to
    |g| <= 1e-10 or width <= 1e-9, then returns the best of all interior
    roots and the two endpoints.
    """
    moments = _problem_moments(problem)
    lam_per_step = problem.lam / problem.length

    def foc(T: float) -> float:
        _, cov = moments(T)
        return lam_per_step - cov / T**2

    def objective(T: float) -> float:
        e_nu, _ = moments(T)
        return e_nu + lam_per_step * T

    lo, hi = problem.bracket
    grid = np.geomspace(lo, hi, GRID_POINTS)
    g = np.array([foc(t) for t in grid])
    if not np.all(np.isfinite(g)):
        raise SolverError("first-order condition evaluated to a non-finite value")

    roots: list[float] = []
    for i in range(len(grid) - 1):
        if g[i] == 0.0:
            roots.append(float(grid[i]))
        elif g[i] * g[i + 1] < 0.0:
            a, b = float(grid[i]), float(grid[i + 1])
            ga = g[i]
            while abs(b - a) > BRACKET_WIDTH_TOLERANCE:
                mid = 0.5 * (a + b)
                gm = foc(mid)
                if abs(gm) <= FOC_TOLERANCE:
                    a = b = mid
                    break
                if (ga < 0) == (gm < 0):
                    a, ga = mid, gm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    if g[-1] == 0.0:
        roots.append(float(grid[-1]))

    candidates = []
    for t in sorted(set([lo, hi] + roots)):
        obj = objective(t)
        if not np.isfinite(obj):
            raise SolverError(f"objective is non-finite at T = {t}")
        candidates.append(
            Candidate(
                temperature=t,
                objective=obj,
                foc_residual=abs(foc(t)),
                interior=(t in roots),
            )
        )
    best = max(candidates, key=lambda c: c.objective)
    diagnostics = OptimizationDiagnostics(
        candidates=tuple(candidates), chosen=best, grid_points=GRID_POINTS
    )
    return best.temperature, diagnostics
