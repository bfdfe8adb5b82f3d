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
per temperature, e.g. E[e^U] = prod_k E_{pi_k}[e^{l_k}] with
pi_k = softmax(l_k / T) and each step's maximum factored out of e^{l_k}, so
no factor cancels at a small T and the only exponent taken is e^{max U}.
Otherwise the V^L score table is enumerated once, gathered from the
composition lattice's rows, and each temperature costs one exp pass over the
scores shifted by their maximum and one product with the stacked rows
[nu, nu * shifted, shifted]. The enumeration cap counts what each path
builds: the L*V logits of the closed forms, or the table's V^L messages.
The closed forms normalise with ``generation.logsumexp``, the one normaliser
of the package. The solver, the objective, the curve and the derivative
evaluate the moments with numpy's floating-point warnings off, and reject a
non-finite result as SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

import numpy as np

from .errors import ArgumentError, ConfigError, SolverError
from .generation import (
    DEFAULT_ENUM_CAP,
    Dataset,
    GenerationConfig,
    LogitModel,
    check_enumerable,
    check_length,
    check_temperature,
    enumerate_cumulative_scores,
    enumerate_message_distribution,
    logsumexp,
    path_logits,
    _tempered_log_probs,
)

# Each kind's parameters, as the --utility text form and the JSON form name
# them, mapped to whether the text form must give them.
UTILITY_PARAMETERS: dict[str, dict[str, bool]] = {
    "exp_logit_plus_length": {"length_coefficient": False},
    "affine_in_U": {"slope": True, "intercept": False},
    "constant": {"value": True},
    "table": {"table_values": True},
}
UTILITY_KINDS = tuple(UTILITY_PARAMETERS)

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
    def parse(cls, text: str) -> "UtilitySpec":
        """The ``--utility`` text form: ``kind`` or ``kind:key=value,...``,
        and ``table:v0,v1,...`` for the table kind."""
        kind, _, rest = text.partition(":")
        if kind == "table":
            if not rest:
                raise ArgumentError("table utility needs values: table:v0,v1,...")
            try:
                return cls.table(float(v) for v in rest.split(","))
            except ValueError:
                raise ArgumentError(f"table utility has a non-numeric value: {rest!r}") from None
        params: dict[str, float] = {}
        for item in rest.split(",") if rest else ():
            key, sep, value = item.partition("=")
            if not sep:
                raise ArgumentError(f"utility parameter {item!r} is not key=value")
            try:
                params[key] = float(value)
            except ValueError:
                raise ArgumentError(f"utility parameter {item!r} is not numeric") from None
        expected = UTILITY_PARAMETERS.get(kind, {})  # the constructor rejects the kind
        if not set(params) <= set(expected):
            raise ArgumentError(f"unknown parameter for utility kind {kind!r}: {rest!r}")
        missing = [name for name, required in expected.items() if required and name not in params]
        if missing:
            raise ArgumentError(f"utility kind {kind!r} requires {', '.join(missing)}")
        return cls(kind=kind, **params)

    def to_jsonable(self) -> dict[str, Any]:
        """The kind and its parameters, as reports and manifests record them."""
        out: dict[str, Any] = {"kind": self.kind}
        for name in UTILITY_PARAMETERS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

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
            with np.errstate(over="ignore"):  # an overflow is rejected below
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
        check_temperature(self.temperature)
        log_probs = _tempered_log_probs(scores, self.temperature)
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


def _step_softmax(logits: np.ndarray, beta: float) -> np.ndarray:
    """Softmax weights of each row of beta * logits."""
    scaled = beta * logits
    return np.exp(scaled - logsumexp(scaled))


def _factorised_moments(logits: np.ndarray, utility: UtilitySpec, length: int) -> Moments:
    """Closed-form moments for the product law of the (L, V) logit rows."""
    if utility.kind == "constant":
        return lambda T: (utility.value, 0.0)
    if utility.kind == "affine_in_U":

        def affine(T: float) -> tuple[float, float]:
            weights = _step_softmax(logits, 1.0 / T)
            means = (weights * logits).sum(axis=1)
            variances = (weights * (logits - means[:, None]) ** 2).sum(axis=1)
            e_nu = utility.slope * float(means.sum()) + utility.intercept
            return e_nu, utility.slope * float(variances.sum())

        return affine

    # exp_logit_plus_length. E[e^U] = prod_k E_{pi_k}[e^{l_k}], with each
    # step's maximum m_k factored out of e^{l_k}: the only exponent left is
    # e^{sum_k m_k}, the largest score's, which the enumeration path also
    # takes and which must be finite.
    tops = logits.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        largest = float(np.exp(tops.sum()))
    if not np.isfinite(largest):
        raise SolverError("utility evaluated to a non-finite value")
    lifts = np.exp(logits - tops)
    bonus = utility.length_coefficient * length

    def exp_plus_length(T: float) -> tuple[float, float]:
        # Cov(e^U, U) = E[e^U] * (E_tilted[U] - E[U]), where the tilted law
        # weights each step by pi_k * e^{l_k}, normalised per step.
        weights = _step_softmax(logits, 1.0 / T)
        tilted = weights * lifts
        factors = tilted.sum(axis=1)
        mean_exp = largest * float(np.prod(factors))
        shift = float(((tilted / factors[:, None] - weights) * logits).sum())
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
    forms, capped by the logits of their L rows; coupled models and the table utility
    enumerate the score table once, capped by its V^L messages, and reuse it
    for every temperature.
    """
    if model.history_coupling is None and utility.kind != "table":
        check_enumerable(model.vocabulary.size, length, enum_cap, "logits in step rows")
        return _factorised_moments(path_logits(model, dataset, length), utility, length)
    scores = enumerate_cumulative_scores(model, dataset, length, enum_cap)
    values = utility.values_for(scores, length)
    # Cov(nu, U) = Cov(nu, U - max U); the shift keeps every weight <= 1 and
    # the cancellation in E[nu U] - E[nu] E[U] small.
    shifted = scores - scores.max()
    stacked = np.stack([values, values * shifted, shifted])

    def enumerated(T: float) -> tuple[float, float]:
        weights = np.exp(shifted / T)
        e_nu, e_nu_shifted, e_shifted = (stacked @ weights / weights.sum()).tolist()
        return e_nu, e_nu_shifted - e_nu * e_shifted

    return enumerated


def _temperature_slope(cov: float, temperature: float) -> float:
    """dE/dT = -Cov_T(nu, U) / T^2, with T^2 in numpy floats: at an extreme T
    it underflows to 0 or overflows to inf instead of raising."""
    return float(-cov / np.float64(temperature) ** 2)


@np.errstate(all="ignore")  # a non-finite moment is the caller's to reject
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
    return _temperature_slope(cov, temperature)


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
        object.__setattr__(self, "length", check_length(self.length))
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam!r}")
        lo, hi = (float(self.bracket[0]), float(self.bracket[1]))
        if not (np.isfinite(lo) and np.isfinite(hi)) or not 0 < lo < hi:
            raise ConfigError(f"bracket must satisfy 0 < low < high, got {self.bracket!r}")
        object.__setattr__(self, "bracket", (lo, hi))
        check_enumerable(1, self.length, self.enum_cap)  # checks the cap; 1^L never exceeds it
        object.__setattr__(self, "enum_cap", int(self.enum_cap))

    @cached_property
    def moments(self) -> Moments:
        """T -> (E_T[nu], Cov_T(nu, U)), built once for the solver, the
        objective and the curve."""
        return utility_moments(self.model, self.dataset, self.length, self.utility, self.enum_cap)


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


@np.errstate(all="ignore")  # a non-finite objective is rejected below
def regularized_objective(problem: OptimizationProblem, temperature: float) -> float:
    """E(T) + (lambda / L) * T."""
    e_nu, _ = problem.moments(temperature)
    objective = e_nu + (problem.lam / problem.length) * temperature
    if not np.isfinite(objective):
        raise SolverError(f"objective is non-finite at T = {temperature}")
    return objective


@np.errstate(all="ignore")  # non-finite rows are rejected below
def objective_curve(
    problem: OptimizationProblem, points: int
) -> list[tuple[float, float, float, float]]:
    """(T, E(T), objective, dE/dT) at ``points`` log-spaced temperatures
    spanning the bracket, from one moments function."""
    moments = problem.moments
    lam_per_step = problem.lam / problem.length
    rows = []
    for t in np.geomspace(*problem.bracket, points):
        temperature = float(t)
        e_nu, cov = moments(temperature)
        objective = e_nu + lam_per_step * temperature
        rows.append((temperature, e_nu, objective, _temperature_slope(cov, temperature)))
    if not np.isfinite(rows).all():
        raise SolverError("objective curve has a non-finite value")
    return rows


@np.errstate(all="ignore")  # non-finite moments are rejected below
def optimal_temperature(problem: OptimizationProblem) -> tuple[float, OptimizationDiagnostics]:
    """Global maximiser of the regularized objective over the bracket.

    Scans a log-spaced grid for sign changes of the first-order condition
    g(T) = lambda/L - Cov_T(nu, U)/T^2, bisects each bracketing interval to
    |g| <= 1e-10 or width <= 1e-9, then returns the best of all interior
    roots and the two endpoints.
    """
    moments = problem.moments
    lam_per_step = problem.lam / problem.length

    def foc(T: float) -> float:
        _, cov = moments(T)
        return lam_per_step + _temperature_slope(cov, T)

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
        candidates.append(
            Candidate(
                temperature=t,
                objective=regularized_objective(problem, t),
                foc_residual=abs(foc(t)),
                interior=(t in roots),
            )
        )
    best = max(candidates, key=lambda c: c.objective)
    diagnostics = OptimizationDiagnostics(
        candidates=tuple(candidates), chosen=best, grid_points=GRID_POINTS
    )
    return best.temperature, diagnostics
