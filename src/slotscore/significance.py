"""Paired bootstrap comparison of two systems' overall F1 on one gold
corpus, resampling at the note level.

Per-note tallies are computed once per system; each repetition then draws
notes with replacement, sums the cached tallies, and records the F1
difference. The random stream is Philox4x64 keyed by the seed. Repetition i
starts at counter word 1 = i (every other counter word 0), which is the
stream of ``Philox(key=seed).advance(i << 64)``. It depends on (seed, i)
only, so a shorter run is a prefix of a longer one.

numpy is imported only when a bootstrap runs, so scoring never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING

from .schema import AnnotationSchema
from .scoring import per_document_counts, prf
from .standoff import Corpus

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BootstrapConfig:
    repetitions: int = 10_000
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        # A float or string would run as another number, or fail only after
        # both systems are scored; an integer type such as numpy's is kept as
        # the int it stands for.
        for name in ("repetitions", "seed"):
            try:
                object.__setattr__(self, name, index(getattr(self, name)))
            except TypeError:
                raise TypeError(
                    f"{name} must be an integer, not {type(getattr(self, name)).__name__}"
                ) from None
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be in [0, 2**128)")


@dataclass(frozen=True)
class BootstrapResult:
    f1_a: float
    f1_b: float
    observed_delta: float
    p_value: float
    repetitions: int
    seed: int
    alpha: float
    significant: bool
    deltas: tuple[float, ...] | None = None

    def verdict(self) -> str:
        return "statistically different" if self.significant else "not statistically different"


def _note_totals(gold: Corpus, pred: Corpus, schema: AnnotationSchema) -> np.ndarray:
    """Per-note (tp, fn, fp) summed across all phenomenon keys, one row per
    gold note in sorted doc_id order."""
    import numpy as np

    rows = []
    for counts in per_document_counts(gold, pred, schema).values():
        total = counts.total()
        rows.append((total.tp, total.fn, total.fp))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def _overall_f1(totals: np.ndarray) -> float:
    tp, fn, fp = (int(x) for x in totals)
    return prf(tp, fn, fp)[2]


def _f1_rows(totals: np.ndarray) -> np.ndarray:
    """F1 of each (tp, fn, fp) row, in prf's operation order with every 0/0
    quotient defined as 0, so each value equals prf's bit for bit."""
    import numpy as np

    tp, fn, fp = totals[:, 0], totals[:, 1], totals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp != 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn != 0, tp / (tp + fn), 0.0)
        both = precision + recall
        return np.where(both != 0, 2 * precision * recall / both, 0.0)


def paired_bootstrap(
    gold: Corpus,
    pred_a: Corpus,
    pred_b: Corpus,
    schema: AnnotationSchema,
    cfg: BootstrapConfig | None = None,
    keep_deltas: bool = False,
) -> BootstrapResult:
    """Two-sided paired bootstrap on overall F1.

    The p-value uses the add-one sign-flip estimator
    ``2 * min(1 + #{delta <= 0}, 1 + #{delta >= 0}) / (repetitions + 1)``,
    clamped to 1, so identical systems report exactly p = 1.0 and no
    comparison reports p = 0.
    """
    import numpy as np

    cfg = cfg or BootstrapConfig()
    if len(gold) == 0:
        raise ValueError("gold corpus is empty")

    # One row per gold note: system A's (tp, fn, fp), then system B's.
    totals = np.hstack([_note_totals(gold, pred_a, schema), _note_totals(gold, pred_b, schema)])
    n = len(gold)

    f1_a = _overall_f1(totals[:, :3].sum(axis=0))
    f1_b = _overall_f1(totals[:, 3:].sum(axis=0))
    observed = f1_a - f1_b

    # One generator serves every repetition. Assigning the fresh state with
    # counter word 1 = rep also empties its buffered output, so repetition
    # rep draws exactly the stream of Philox(key=seed).advance(rep << 64).
    bit_gen = np.random.Philox(key=cfg.seed)
    rng = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    counter = fresh["state"]["counter"]
    # A repetition's sums are its note counts (how often each note was
    # drawn) times the per-note totals: exact integers, as a plain sum.
    sums = np.empty((cfg.repetitions, 6), dtype=np.int64)
    for rep in range(cfg.repetitions):
        counter[1] = rep
        bit_gen.state = fresh
        idx = rng.integers(0, n, size=n)
        sums[rep] = np.bincount(idx, minlength=n) @ totals
    deltas = _f1_rows(sums[:, :3]) - _f1_rows(sums[:, 3:])

    at_most = int(np.count_nonzero(deltas <= 0.0))
    at_least = int(np.count_nonzero(deltas >= 0.0))
    p_value = min(1.0, 2 * min(at_most + 1, at_least + 1) / (cfg.repetitions + 1))

    return BootstrapResult(
        f1_a=f1_a,
        f1_b=f1_b,
        observed_delta=observed,
        p_value=p_value,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
        alpha=cfg.alpha,
        significant=p_value < cfg.alpha,
        deltas=tuple(deltas.tolist()) if keep_deltas else None,
    )
